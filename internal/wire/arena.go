package wire

// Ref-counted receive arenas. The transport read loops slice inbound
// frame payloads straight out of a shared fill buffer instead of
// allocating per frame (the zero-copy receive path). The aliasing rule
// from pool.go still binds: receivers retain message bytes for
// accusations and monitor reports, so a buffer that handed out even one
// delivered payload can never be recycled — it is Pinned and left to the
// garbage collector. Buffers whose frames were all dropped before
// delivery (fault-plane rechecks, departed destinations, protocol
// violations) hit refcount zero and return to the pool, which is where
// the recycling win lives under loss-heavy scripts and idle keepalive
// traffic.

import (
	"sync"
	"sync/atomic"
)

// ArenaSize is the default capacity of a pooled receive arena: large
// enough that one socket read drains many queued frames (the batch-
// receive path — one syscall, many frames), small enough that a pinned
// arena does not anchor much dead memory around a retained payload.
const ArenaSize = 64 << 10

// maxPooledArena caps what the pool keeps; oversized one-off arenas
// (a single frame larger than ArenaSize) are always left to the GC.
const maxPooledArena = 256 << 10

var arenaPool = sync.Pool{
	New: func() any { return &Arena{buf: make([]byte, ArenaSize)} },
}

// Arena is a ref-counted pooled byte buffer for zero-copy receive paths.
// The holder that obtained it from GetArena owns one reference; Pin adds
// a permanent reference on behalf of an escaped payload slice. Release
// drops the holder's reference and recycles the buffer iff nothing
// escaped.
type Arena struct {
	buf  []byte
	refs atomic.Int32
}

// GetArena returns an arena with capacity at least n (at least ArenaSize)
// holding one reference for the caller.
func GetArena(n int) *Arena {
	a := arenaPool.Get().(*Arena)
	if cap(a.buf) < n {
		// Too small for this frame: put the pooled one back untouched and
		// build a dedicated arena (never pooled — see Release).
		arenaPool.Put(a)
		a = &Arena{buf: make([]byte, n)}
	}
	a.buf = a.buf[:cap(a.buf)]
	a.refs.Store(1)
	return a
}

// Bytes returns the arena's full backing slice.
func (a *Arena) Bytes() []byte { return a.buf }

// Pin records that a slice of the arena escaped to a consumer that may
// retain it indefinitely. A pinned arena never returns to the pool; it is
// reclaimed by the GC once every escaped slice is dead.
func (a *Arena) Pin() { a.refs.Add(1) }

// Release drops the holder's reference. At zero — nothing escaped — the
// arena returns to the pool for the next read loop.
func (a *Arena) Release() {
	if a.refs.Add(-1) == 0 && cap(a.buf) <= maxPooledArena {
		arenaPool.Put(a)
	}
}
