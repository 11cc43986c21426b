package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"yourandvalue/internal/mlkit"
)

// The compact model blob is the model's one wire and at-rest format:
// a small JSON header (feature names, binner, metadata — the parts that
// are genuinely tabular) followed by the flat forest's 16-byte-per-node
// binary sections, byte for byte the forest and tree a trained model
// holds. GET /v2/model serves it, the fleet store keeps it, and clients
// walk the forest and tree it carries directly.
//
// Layout (little-endian):
//
//	"YAVM" | uint16 version
//	uint32 len | header JSON (compactHeader)
//	uint32 len | flat forest  (mlkit.FlatForest binary)
//	byte hasTree | [uint32 len | flat tree]

const (
	compactMagic   = "YAVM"
	compactVersion = 1
)

// ErrBadCompactModel reports a structurally invalid compact model blob.
var ErrBadCompactModel = errors.New("core: invalid compact model blob")

// compactHeader is the JSON-tabular part of the model; everything
// tree-shaped travels binary.
type compactHeader struct {
	Version   int           `json:"version"`
	TrainedAt time.Time     `json:"trained_at"`
	Names     []string      `json:"names"`
	Binner    *mlkit.Binner `json:"binner"`
	TimeShift float64       `json:"time_shift"`
	Metrics   ModelMetrics  `json:"metrics"`
}

// EncodeCompact serializes the model in compact flat form.
func (m *Model) EncodeCompact() ([]byte, error) {
	if m.Features == nil || m.Binner == nil {
		return nil, errors.New("core: compact encoding needs features and binner")
	}
	ff := m.FlatForest()
	if ff == nil {
		return nil, errors.New("core: compact encoding needs a forest")
	}
	hdr, err := json.Marshal(compactHeader{
		Version:   m.Version,
		TrainedAt: m.TrainedAt,
		Names:     m.Features.Names,
		Binner:    m.Binner,
		TimeShift: m.TimeShift,
		Metrics:   m.Metrics,
	})
	if err != nil {
		return nil, err
	}
	ft := m.FlatTree()
	size := len(compactMagic) + 2 + 4 + len(hdr) + 4 + ff.BinarySize() + 1
	if ft != nil {
		size += 4 + ft.BinarySize()
	}
	b := make([]byte, 0, size)
	b = append(b, compactMagic...)
	b = binary.LittleEndian.AppendUint16(b, compactVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	b = binary.LittleEndian.AppendUint32(b, uint32(ff.BinarySize()))
	b = ff.AppendBinary(b)
	if ft != nil {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(ft.BinarySize()))
		b = ft.AppendBinary(b)
	} else {
		b = append(b, 0)
	}
	return b, nil
}

// DecodeCompactModel restores a model from its compact encoding. The
// decoded forest and tree are the trained model's, so it estimates
// bit-identically to the original; only the forest's out-of-bag error
// and importance, which the header's metrics carry instead, stay
// behind.
func DecodeCompactModel(blob []byte) (*Model, error) {
	if len(blob) < len(compactMagic)+2 || string(blob[:len(compactMagic)]) != compactMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCompactModel)
	}
	blob = blob[len(compactMagic):]
	ver := binary.LittleEndian.Uint16(blob)
	if ver != compactVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadCompactModel, ver)
	}
	blob = blob[2:]

	hdrBytes, blob, err := compactSection(blob, "header")
	if err != nil {
		return nil, err
	}
	var h compactHeader
	if err := json.Unmarshal(hdrBytes, &h); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadCompactModel, err)
	}
	if len(h.Names) == 0 || h.Binner == nil {
		return nil, fmt.Errorf("%w: incomplete header", ErrBadCompactModel)
	}

	forestBytes, blob, err := compactSection(blob, "forest")
	if err != nil {
		return nil, err
	}
	ff, n, err := mlkit.DecodeFlatForest(forestBytes)
	if err != nil {
		return nil, err
	}
	if n != len(forestBytes) {
		return nil, fmt.Errorf("%w: trailing bytes in forest section", ErrBadCompactModel)
	}
	if err := checkFeatureBounds(ff, len(h.Names)); err != nil {
		return nil, err
	}

	var ft *mlkit.FlatForest
	if len(blob) < 1 {
		return nil, fmt.Errorf("%w: missing tree flag", ErrBadCompactModel)
	}
	hasTree := blob[0]
	blob = blob[1:]
	if hasTree == 1 {
		treeBytes, rest, err := compactSection(blob, "tree")
		if err != nil {
			return nil, err
		}
		blob = rest
		if ft, n, err = mlkit.DecodeFlatForest(treeBytes); err != nil {
			return nil, err
		}
		if n != len(treeBytes) {
			return nil, fmt.Errorf("%w: trailing bytes in tree section", ErrBadCompactModel)
		}
		if err := checkFeatureBounds(ft, len(h.Names)); err != nil {
			return nil, err
		}
	} else if hasTree != 0 {
		return nil, fmt.Errorf("%w: bad tree flag %d", ErrBadCompactModel, hasTree)
	}
	if len(blob) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCompactModel, len(blob))
	}

	m := &Model{
		Version:   h.Version,
		TrainedAt: h.TrainedAt,
		Features:  &SFeatures{Names: h.Names},
		Binner:    h.Binner,
		TimeShift: h.TimeShift,
		Metrics:   h.Metrics,
		forest:    ff,
		tree:      ft,
	}
	m.Features.rebuild()
	return m, nil
}

// compactSection pops one uint32-length-prefixed section off blob.
func compactSection(blob []byte, name string) (section, rest []byte, err error) {
	if len(blob) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated %s length", ErrBadCompactModel, name)
	}
	n := binary.LittleEndian.Uint32(blob)
	blob = blob[4:]
	if uint64(n) > uint64(len(blob)) {
		return nil, nil, fmt.Errorf("%w: truncated %s section", ErrBadCompactModel, name)
	}
	return blob[:n], blob[n:], nil
}

// checkFeatureBounds validates split feature indices against the
// feature-space dimensionality — the one structural check
// DecodeFlatForest cannot do itself.
func checkFeatureBounds(ff *mlkit.FlatForest, dim int) error {
	for i, ft := range ff.Feats {
		if int(ft) >= dim {
			return fmt.Errorf("%w: node %d splits on feature %d of %d", ErrBadCompactModel, i, ft, dim)
		}
	}
	return nil
}
