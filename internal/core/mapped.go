// Mapped is the mmap-backed Inferences: a read-only view over a
// snapshot file whose query structures live in the kernel page
// cache, not this process's heap. Opening one is O(1) in corpus size;
// N replicas mapping the same file share one physical copy of the
// data; and Verdict reads decode fixed-width records straight off the
// mapped pages without allocating.
//
// Safety model: no unsafe pointer casts — records are decoded with
// encoding/binary accessors (which compile to plain loads), and the one
// public method that returns reference types (Materialize) copies out of
// the mapping, so no caller-held slice can alias pages that a later
// Close unmaps. Value results (Verdict, ClusterSummary) are copies by
// construction.
package core

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// Mapped is an immutable inference set served directly from a mapped
// snapshot file. Safe for unsynchronized concurrent readers. The
// embedded parsed file holds the Inferences over the mapped sections —
// the classic KindSource methods, Large, Options — and Verify, the full
// integrity pass (section CRCs, sort invariants, index ranges, counters)
// an open skips.
type Mapped struct {
	*snapV2
	mmapped bool // true when backed by a real mmap, false for the heap fallback
	closed  atomic.Bool
}

// OpenSnapshotMmap maps the snapshot at path and returns a queryable
// view. The work done is O(1) in corpus size: the file is mapped (or,
// on platforms without mmap support, read whole), the header and
// section table are validated, and the tiny meta/stats sections are
// decoded; record arrays are only faulted in as queries touch them.
//
// The mapping is released by Close, or by the garbage collector when
// the Mapped becomes unreachable — so an atomically swapped-out
// generation stays valid until the last in-flight request drops its
// reference.
func OpenSnapshotMmap(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mmapped, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("snapshot: mmap %s: %w", path, err)
	}
	s, err := parseSnapshotV2(data)
	if err != nil {
		if mmapped {
			munmapFile(data)
		}
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	m := &Mapped{snapV2: s, mmapped: mmapped}
	if mmapped {
		// Belt and braces: unmap when the GC proves no reference —
		// including any in-flight request's — can still reach the pages.
		runtime.SetFinalizer(m, func(m *Mapped) { m.Close() })
	}
	return m, nil
}

// Close releases the mapping. Idempotent; safe to call while other
// goroutines still hold the *Mapped only if they have stopped querying
// it (the serving layer guarantees this by draining before closing —
// or by not calling Close at all and letting the finalizer run).
func (m *Mapped) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	if m.mmapped {
		return munmapFile(m.data)
	}
	return nil
}

// Mmapped reports whether the view is backed by a real memory mapping
// (false on platforms where the fallback read the file into the heap).
func (m *Mapped) Mmapped() bool { return m.mmapped }

// Meta returns the snapshot's provenance block.
func (m *Mapped) Meta() SnapshotMeta { return m.meta }

// Materialize returns the inferences copied onto the heap, every section
// out of the mapped pages, so the copy outlives Close. WriteSnapshotFlat
// of it writes the file's bytes again.
func (m *Mapped) Materialize() *Inferences { return m.Inferences.clone() }
