//go:build !unix

package transport

import (
	"fmt"
	"os"
)

// The shm transport needs a shared file mapping; platforms without
// one (windows, wasm) report it unsupported and callers fall back to
// inproc or tcp.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return nil, fmt.Errorf("transport: shm wire not supported on this platform")
}

func munmapFile(b []byte) error { return nil }

// Without a portable non-blocking socket write, a tcp send writes its
// whole frame, waiting for room: two processes that flood each other
// beyond the socket buffers can stall.
func (c *tconn) writeNow(b []byte) (int, error) { return c.c.Write(b) }
