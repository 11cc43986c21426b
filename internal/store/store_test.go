package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"yourandvalue/internal/store"
	_ "yourandvalue/internal/store/memstore"
	_ "yourandvalue/internal/store/redisstore"
)

func TestOpenDefaults(t *testing.T) {
	for _, raw := range []string{"", "mem", "mem://"} {
		st, err := store.Open(raw)
		if err != nil {
			t.Fatalf("Open(%q): %v", raw, err)
		}
		if st.Name() != "mem" {
			t.Fatalf("Open(%q).Name() = %q, want mem", raw, st.Name())
		}
		_ = st.Close()
	}
}

func TestOpenErrors(t *testing.T) {
	cases := []struct {
		raw  string
		want string
	}{
		{"localhost:6379", "no scheme"},
		{"bolt://x", `unknown backend scheme "bolt"`},
		{"redis://", "no host"},
		{"redis://host/notanumber", "not a database index"},
	}
	for _, tc := range cases {
		_, err := store.Open(tc.raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open(%q): err = %v, want containing %q", tc.raw, err, tc.want)
		}
	}
}

func TestSchemesRegistered(t *testing.T) {
	got := store.Schemes()
	for _, want := range []string{"mem", "redis"} {
		found := false
		for _, s := range got {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Schemes() = %v, missing %q", got, want)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	in := &store.ModelRecord{
		Version:     17,
		ETag:        `"deadbeefcafe0123"`,
		Blob:        []byte{'Y', 'A', 'V', 'M', 0x00, 0xff, 0x10, 0x80},
		PublishedAt: time.Unix(1699999999, 123456789).UTC(),
		TrainSize:   4096,
	}
	data := store.MarshalRecord(in)
	out, err := store.UnmarshalRecord(data)
	if err != nil {
		t.Fatalf("UnmarshalRecord: %v", err)
	}
	if out.Version != in.Version || out.ETag != in.ETag ||
		!bytes.Equal(out.Blob, in.Blob) ||
		!out.PublishedAt.Equal(in.PublishedAt) || out.TrainSize != in.TrainSize {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestRecordRoundTripEmptyFields(t *testing.T) {
	in := &store.ModelRecord{Version: 1, PublishedAt: time.Unix(0, 0).UTC()}
	out, err := store.UnmarshalRecord(store.MarshalRecord(in))
	if err != nil {
		t.Fatalf("UnmarshalRecord: %v", err)
	}
	if out.Version != 1 || out.ETag != "" || len(out.Blob) != 0 {
		t.Fatalf("empty-field round trip mismatch: %+v", out)
	}
}

func TestRecordRejectsCorruption(t *testing.T) {
	good := store.MarshalRecord(&store.ModelRecord{
		Version: 3, ETag: "x", Blob: []byte("b"), PublishedAt: time.Now(),
	})
	cases := map[string][]byte{
		"bad magic":      append([]byte("NOPE"), good[4:]...),
		"truncated":      good[:len(good)-2],
		"trailing bytes": append(append([]byte{}, good...), 0x00),
		"empty":          {},
	}
	for name, data := range cases {
		if _, err := store.UnmarshalRecord(data); err == nil {
			t.Errorf("%s: UnmarshalRecord accepted corrupt input", name)
		}
	}
}

// parentRecord is a record in the envelope's earlier layout, which
// carried a second blob (the model's compact form beside its JSON form)
// after the first.
func parentRecord(rec store.ModelRecord, second []byte) []byte {
	data := binary.AppendUvarint(store.MarshalRecord(&rec), uint64(len(second)))
	return append(data, second...)
}

// FuzzUnmarshalRecord feeds arbitrary bytes to the record envelope
// decoder: it must reject them or return a record that survives a
// MarshalRecord/UnmarshalRecord round trip unchanged. A record in the
// earlier two-blob layout must be rejected, never served as a model.
func FuzzUnmarshalRecord(f *testing.F) {
	rec := store.ModelRecord{
		Version:     7,
		ETag:        `"0123456789abcdef"`,
		Blob:        []byte{'Y', 'A', 'V', 'M', 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, '{', '}'},
		PublishedAt: time.Unix(1700000000, 42).UTC(),
		TrainSize:   8640,
	}
	good := store.MarshalRecord(&rec)
	jsonRec := rec
	jsonRec.Blob = []byte(`{"version":7,"forest":{"trees":[],"classes":4}}`)
	parents := [][]byte{parentRecord(jsonRec, rec.Blob), parentRecord(jsonRec, nil), parentRecord(rec, rec.Blob)}
	for i, p := range parents {
		if _, err := store.UnmarshalRecord(p); err == nil {
			f.Fatalf("two-blob record %d decoded", i)
		}
	}
	f.Add(good)
	for _, p := range parents {
		f.Add(p)
	}
	for _, n := range []int{0, 3, 4, 5, len(good) - len(rec.Blob) - 1, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := store.UnmarshalRecord(data)
		if err != nil {
			return
		}
		again, err := store.UnmarshalRecord(store.MarshalRecord(got))
		if err != nil {
			t.Fatalf("re-marshalled record does not decode: %v", err)
		}
		if again.Version != got.Version || again.ETag != got.ETag || !bytes.Equal(again.Blob, got.Blob) ||
			!again.PublishedAt.Equal(got.PublishedAt) || again.TrainSize != got.TrainSize {
			t.Fatalf("round trip changed the record:\n got=%+v\nagain=%+v", got, again)
		}
	})
}

func TestIsTransient(t *testing.T) {
	transient := []error{
		errors.New("dial tcp: connection refused"),
		io.EOF,
	}
	for _, err := range transient {
		if !store.IsTransient(err) {
			t.Errorf("IsTransient(%v) = false, want true", err)
		}
	}
	permanent := []error{
		nil,
		store.ErrNoModel,
		store.ErrStalePublish,
		store.ErrLeaseLost,
		store.ErrClosed,
	}
	for _, err := range permanent {
		if store.IsTransient(err) {
			t.Errorf("IsTransient(%v) = true, want false", err)
		}
	}
}
