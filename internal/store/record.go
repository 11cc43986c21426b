package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// recordMagic frames a marshalled ModelRecord so a corrupted or foreign
// value is rejected before any length field is trusted.
const recordMagic = "YAVR"

// maxRecordField bounds any single length-prefixed field on decode
// (model blobs are hundreds of KiB; 256 MiB is far beyond plausible).
const maxRecordField = 256 << 20

// MarshalRecord encodes rec into the store wire envelope networked
// backends persist: a magic header plus uvarint-length-prefixed fields.
// JSON would base64-inflate the blob by a third; the envelope keeps it
// byte-for-byte, so the compact model stays compact at rest.
func MarshalRecord(rec *ModelRecord) []byte {
	buf := make([]byte, 0, len(recordMagic)+8*4+len(rec.Blob)+len(rec.ETag))
	buf = append(buf, recordMagic...)
	buf = binary.AppendUvarint(buf, uint64(rec.Version))
	buf = binary.AppendVarint(buf, rec.PublishedAt.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(rec.TrainSize))
	buf = appendBytes(buf, []byte(rec.ETag))
	buf = appendBytes(buf, rec.Blob)
	return buf
}

// UnmarshalRecord decodes a MarshalRecord envelope, validating framing
// and length bounds so a corrupted store value cannot cause huge
// allocations or silent truncation.
func UnmarshalRecord(data []byte) (*ModelRecord, error) {
	if len(data) < len(recordMagic) || string(data[:len(recordMagic)]) != recordMagic {
		return nil, errors.New("store: model record envelope has bad magic")
	}
	p := data[len(recordMagic):]
	version, p, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("store: record version: %w", err)
	}
	pubNano, p, err := readVarint(p)
	if err != nil {
		return nil, fmt.Errorf("store: record timestamp: %w", err)
	}
	trainSize, p, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("store: record train size: %w", err)
	}
	etag, p, err := readBytes(p)
	if err != nil {
		return nil, fmt.Errorf("store: record etag: %w", err)
	}
	blob, p, err := readBytes(p)
	if err != nil {
		return nil, fmt.Errorf("store: record blob: %w", err)
	}
	if len(p) != 0 {
		return nil, errors.New("store: model record envelope has trailing bytes")
	}
	return &ModelRecord{
		Version:     int(version),
		ETag:        string(etag),
		Blob:        blob,
		PublishedAt: time.Unix(0, pubNano).UTC(),
		TrainSize:   int(trainSize),
	}, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errors.New("truncated uvarint")
	}
	return v, p[n:], nil
}

func readVarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, nil, errors.New("truncated varint")
	}
	return v, p[n:], nil
}

func readBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > maxRecordField || n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("field length %d exceeds remaining %d bytes", n, len(p))
	}
	out := make([]byte, n)
	copy(out, p[:n])
	return out, p[n:], nil
}
