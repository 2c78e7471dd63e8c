//go:build unix

package transport

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f shared and read-write. The mapping
// stays valid after f is closed or unlinked, which is what the shm
// transport's rendezvous relies on: the leader can remove the file as
// soon as every process has attached.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }

// writeNow is a tcp data end's spill.fit: one write(2) on the
// non-blocking socket, through a callback made once per connection,
// and what the socket took of b. A connection that is not a socket
// (a test's) takes b whole.
func (c *tconn) writeNow(b []byte) (int, error) {
	if c.raw == nil {
		return c.c.Write(b)
	}
	if c.wfn == nil {
		c.wfn = func(fd uintptr) bool {
			c.wn, c.werr = syscall.Write(int(fd), c.wb)
			return true
		}
	}
	c.wb, c.wn, c.werr = b, 0, nil
	err := c.raw.Write(c.wfn)
	if c.wb = nil; err != nil {
		return 0, err
	}
	if c.werr == syscall.EAGAIN || c.werr == syscall.EINTR {
		return 0, nil
	}
	return max(c.wn, 0), c.werr
}
