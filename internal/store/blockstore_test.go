package store

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestMemStoreGetAfterCloseFails pins the BlockStore contract that a
// closed engine rejects reads too, not only writes: a Get after Close
// must not answer an empty inventory as if the node held nothing.
func TestMemStoreGetAfterCloseFails(t *testing.T) {
	m := NewMemStore(0)
	if _, err := m.Put(core.ZeroObject, 0, []byte("block")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Get(core.ZeroObject, -1); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("get after close: %d blocks, err %v; want ErrStoreUnavailable", len(got), err)
	}
}
