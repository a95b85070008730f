// Package faults deterministically corrupts MRT streams, reproducing
// the damage real RouteViews/RIS archives arrive with: flipped bits,
// mid-record truncation, impossible length fields, garbage attribute
// bytes, and duplicated records. Every fault is driven by a seeded RNG
// so tests and experiments replay exactly; the ingestion layer's
// lenient decoder must survive all of them.
package faults

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"bgpintent/internal/mrt"
)

// Kind is one class of injected fault.
type Kind int

const (
	// BitFlip flips one random bit of the record body, leaving framing
	// intact: the record still frames but may no longer decode.
	BitFlip Kind = iota
	// Truncate drops the record's trailing body bytes while keeping the
	// announced length, so the next record header is consumed as body —
	// the framing damage a partial write or disk error causes.
	Truncate
	// Oversize announces an impossible record length (beyond the
	// decoder's cap), the classic corrupt-length-field failure.
	Oversize
	// Garbage overwrites a span of body bytes (path attributes, peer
	// entries...) with random noise.
	Garbage
	// Duplicate emits the record twice.
	Duplicate

	numKinds
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "bitflip"
	case Truncate:
		return "truncate"
	case Oversize:
		return "oversize"
	case Garbage:
		return "garbage"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AllKinds returns every fault kind.
func AllKinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Config controls fault injection.
type Config struct {
	// Seed drives every random choice; equal seeds replay exactly.
	Seed int64
	// Rate is the per-record fault probability in [0, 1].
	Rate float64
	// Kinds restricts which faults are injected; nil means all kinds.
	Kinds []Kind
}

// Result reports what Corrupt did.
type Result struct {
	Records int          // records copied from the clean stream
	Faults  int          // records a fault was applied to
	PerKind map[Kind]int // fault counts by kind
}

// Corrupt copies the MRT stream r to w, injecting faults per cfg. The
// input must itself be well-formed: records are reframed strictly and
// corrupted on the way out.
func Corrupt(w io.Writer, r io.Reader, cfg Config) (Result, error) {
	res := Result{PerKind: make(map[Kind]int)}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rd := mrt.NewReader(r)
	bw := bufio.NewWriterSize(w, 1<<16)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, fmt.Errorf("faults: clean input: %w", err)
		}
		res.Records++
		if rng.Float64() >= cfg.Rate {
			writeRecord(bw, rec, uint32(len(rec.Body)), rec.Body)
			continue
		}
		kind := kinds[rng.Intn(len(kinds))]
		res.Faults++
		res.PerKind[kind]++
		body := append([]byte(nil), rec.Body...)
		switch kind {
		case BitFlip:
			if len(body) > 0 {
				bit := rng.Intn(len(body) * 8)
				body[bit/8] ^= 1 << (bit % 8)
			}
			writeRecord(bw, rec, uint32(len(body)), body)
		case Truncate:
			cut := 0
			if len(body) > 0 {
				cut = rng.Intn(len(body))
			}
			// Announce the full length but ship only a prefix.
			writeRecord(bw, rec, uint32(len(body)), body[:cut])
		case Oversize:
			// Far beyond the decoder's 16 MiB cap.
			writeRecord(bw, rec, 0x40000000|rng.Uint32(), body)
		case Garbage:
			if len(body) > 0 {
				off := rng.Intn(len(body))
				n := 1 + rng.Intn(min(16, len(body)-off))
				rng.Read(body[off : off+n])
			}
			writeRecord(bw, rec, uint32(len(body)), body)
		case Duplicate:
			writeRecord(bw, rec, uint32(len(body)), body)
			writeRecord(bw, rec, uint32(len(body)), body)
		}
	}
	return res, bw.Flush()
}

// writeRecord emits one MRT record, allowing the announced length to
// disagree with the shipped body — the whole point of the exercise.
func writeRecord(bw *bufio.Writer, rec *mrt.Record, length uint32, body []byte) {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], rec.Timestamp)
	binary.BigEndian.PutUint16(hdr[4:6], rec.Type)
	binary.BigEndian.PutUint16(hdr[6:8], rec.Subtype)
	binary.BigEndian.PutUint32(hdr[8:12], length)
	bw.Write(hdr[:])
	bw.Write(body)
}
