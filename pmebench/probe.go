package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The machine probe. On a shared VM the speed a process gets drifts by
// 20–30% over minutes as neighbours come and go: two sets of runs of the
// same code, a few minutes apart, measured setup_s 25% slower,
// items_per_s 26% lower and p50_ms 47% higher in the second set. No
// amount of work inside one run averages that out. So every run also
// times a fixed piece of work that uses no code of the repository — a
// branchy walk over a synthetic tree array and a byte scanner, the kinds
// of work the forest walk, training and JSON do — and reports its timed
// metrics scaled to the speed the tuning VM gave that work.

// probeRef is the probe's median time on the tuning VM (2 vCPUs,
// x86-64) when its neighbours were quiet.
const probeRef = 24 * time.Millisecond

const (
	probeNodes  = 1 << 16 // synthetic tree nodes per goroutine (1 MiB)
	probeDepth  = 14      // levels per walk
	probeWalks  = 1200    // walks per round
	probeBytes  = 4096    // bytes scanned per round
	probeRounds = 72      // rounds per probe per goroutine
)

type probeNode struct {
	thr  float64
	feat int32
	kids int32
}

// probeTables are the per-goroutine tree arrays and byte buffers, built
// once per process so a probe allocates nothing.
var probeTables = sync.OnceValue(func() (t [conns]struct {
	nodes []probeNode
	buf   []byte
}) {
	for g := range t {
		x := uint64(0x9E3779B97F4A7C15) * uint64(g+1)
		t[g].nodes = make([]probeNode, probeNodes)
		for i := range t[g].nodes {
			x = xorshift(x)
			t[g].nodes[i] = probeNode{
				thr:  float64(x%1000) / 1000,
				feat: int32(x>>20) & 15,
				kids: int32((x >> 32) % (probeNodes - 1)),
			}
		}
		t[g].buf = make([]byte, probeBytes)
		for i := range t[g].buf {
			x = xorshift(x)
			t[g].buf[i] = `{"adx":"x","cpm":1.25,"slot":"300x250"}`[x%39]
		}
	}
	return t
})

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// probeOnce runs the fixed probe work on conns goroutines at once, each
// locked to its OS thread, and returns the mean CPU time the threads
// spent on it. CPU time, not wall time: a neighbour that takes a vCPU
// away for a while delays the probe without making it slower to execute,
// and would make the probe scale the metrics by more than the program
// lost; what the probe tracks is how fast the machine executes work it
// is given.
func probeOnce() time.Duration {
	tabs := probeTables()
	var (
		wg   sync.WaitGroup
		sink [conns]float64
		cpu  [conns]time.Duration
	)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPU()
			defer func() { cpu[g] = threadCPU() - start }()
			nodes, buf := tabs[g].nodes, tabs[g].buf
			var vec [16]float64
			x, acc := uint64(g+1), 0.0
			for r := 0; r < probeRounds; r++ {
				for w := 0; w < probeWalks; w++ {
					x = xorshift(x)
					for f := range vec {
						vec[f] = float64((x>>uint(f*4))&1023) / 1023
					}
					n := int32(x % probeNodes)
					for d := 0; d < probeDepth; d++ {
						nd := &nodes[n]
						if vec[nd.feat] <= nd.thr {
							n = nd.kids
						} else {
							n = nd.kids + 1
						}
					}
					acc += nodes[n].thr
				}
				depth, quoted := 0, false
				for _, b := range buf {
					switch {
					case b == '"':
						quoted = !quoted
					case quoted:
					case b == '{':
						depth++
					case b == '}':
						depth--
					case b >= '0' && b <= '9':
						acc += float64(b - '0')
					}
				}
				acc += float64(depth)
			}
			sink[g] = acc
		}()
	}
	wg.Wait()
	var sum float64
	var d time.Duration
	for g := range sink {
		sum += sink[g]
		d += cpu[g] / conns
	}
	if math.IsNaN(sum) {
		return d + 1 // keeps the work from being optimized away
	}
	return d
}

// rusageThread is Linux's RUSAGE_THREAD: the calling thread's usage.
const rusageThread = 1

// threadCPU is the calling OS thread's user plus system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gauge collects one run's probe times.
type gauge struct {
	mu    sync.Mutex
	times []time.Duration
}

// probes is the run's gauge.
var probes gauge

// sample runs two probes back to back and records the faster. A probe
// runs right after the program has filled the caches with its own data;
// the second one starts with the probe's tables warm.
func (g *gauge) sample() {
	d := min(probeOnce(), probeOnce())
	g.mu.Lock()
	g.times = append(g.times, d)
	g.mu.Unlock()
}

// count is how many probes the run made.
func (g *gauge) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.times)
}

// slowdown is how much slower than the tuning VM the machine ran the
// probe in this run: the median probe time over probeRef. A timed metric
// divided by it (a rate multiplied by it) reads what the tuning VM would
// have measured.
func (g *gauge) slowdown() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	xs := make([]float64, len(g.times))
	for i, d := range g.times {
		xs[i] = float64(d)
	}
	if len(xs) == 0 {
		return 1
	}
	return median(xs) / float64(probeRef)
}
