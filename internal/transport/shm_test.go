package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// FuzzValidateShmHeader feeds validateShmHeader an arbitrary header
// page, as a worker maps it from a file another process wrote, against
// a fixed config. The page is 8-byte aligned, as a mapping is, because
// the words are read with atomics. It must never panic, and it must
// accept the page exactly when the version, np, procs, generation and
// job-hash words all match the config.
func FuzzValidateShmHeader(f *testing.F) {
	cfg := Config{Job: "fuzz", NP: 6, Procs: 3, Generation: 2}
	header := func(edit func(w []uint64)) []byte {
		w := make([]uint64, shmOffJobHash/8+1)
		w[shmOffMagic/8], w[shmOffVersion/8] = shmMagic, shmVersion
		w[shmOffNP/8], w[shmOffProcs/8], w[shmOffGen/8] = uint64(cfg.NP), uint64(cfg.Procs), uint64(cfg.Generation)
		w[shmOffJobHash/8] = shmJobHash(cfg.Job)
		edit(w)
		return append([]byte(nil), unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w))...)
	}
	f.Add(header(func([]uint64) {}))
	for _, off := range []int{shmOffVersion, shmOffNP, shmOffProcs, shmOffGen, shmOffJobHash} {
		f.Add(header(func(w []uint64) { w[off/8]++ }))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, shmHdrSize/8)
		page := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), shmHdrSize)
		copy(page, data)
		match := words[shmOffVersion/8] == shmVersion && words[shmOffNP/8] == uint64(cfg.NP) &&
			words[shmOffProcs/8] == uint64(cfg.Procs) && words[shmOffGen/8] == uint64(cfg.Generation) &&
			words[shmOffJobHash/8] == shmJobHash(cfg.Job)
		if err := validateShmHeader(page, cfg); (err == nil) != match {
			t.Fatalf("header words %v: validate = %v, fields match = %v", words[:shmOffJobHash/8+1], err, match)
		}
	})
}

func TestShmLoopStreams(t *testing.T) {
	tr, err := New(Shm, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	exerciseStreams(t, tr)
}

// TestShmLargeMessage pushes frames far bigger than one ring through
// the wire: they must stream through in chunks, in order, without a
// size limit.
func TestShmLargeMessage(t *testing.T) {
	tr, err := New(Shm, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const big = 3*shmDataCap/8 + 17 // ~3 ring capacities of float64s
	msg := make([]float64, big)
	for i := range msg {
		msg[i] = float64(i % 1009)
	}
	go func() {
		tr.Send(1, 2, msg)
		tr.Send(1, 2, []float64{42}) // FIFO after the giant frame
	}()
	got := tr.Recv(1, 2)
	if len(got) != big {
		t.Fatalf("large recv: got %d floats, want %d", len(got), big)
	}
	for i := range got {
		if got[i] != float64(i%1009) {
			t.Fatalf("large recv: corrupt at %d: got %g", i, got[i])
		}
	}
	if tail := tr.Recv(1, 2); len(tail) != 1 || tail[0] != 42 {
		t.Fatalf("trailing message after large frame: got %v", tail)
	}
}

func TestShmEmptyMessage(t *testing.T) {
	tr, err := New(Shm, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	go tr.Send(1, 2, []float64{})
	got := tr.Recv(1, 2)
	if got == nil || len(got) != 0 {
		t.Fatalf("empty message: got %v (nil=%v), want empty non-nil", got, got == nil)
	}
}

// TestShmCrossProcessFail checks failure propagation through the
// shared header flag: Fail on one member unblocks a Recv waiting on
// another member, and the error is sticky on both.
func TestShmCrossProcessFail(t *testing.T) {
	trs := joinMesh(t, Shm, Config{Job: "fail-test", NP: 2, Procs: 2, Generation: 1})
	done := make(chan []float64, 1)
	go func() { done <- trs[1].Recv(1, 2) }() // rank 2 lives on process 1; rank 1 never sends
	time.Sleep(20 * time.Millisecond)
	trs[0].Fail(fmt.Errorf("boom"))
	select {
	case msg := <-done:
		if msg != nil {
			t.Fatalf("aborted cross-process Recv returned %v, want nil", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv on process 1 still blocked after Fail on process 0")
	}
	if trs[1].Err() == nil {
		t.Fatal("process 1 Err() nil after peer failure")
	}
}

// TestShmShapeMismatchRejected: a worker whose np disagrees with the
// mapped header must refuse to join.
func TestShmShapeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	var leaderTr, staleTr Transport
	var leaderErr, staleErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		leaderTr, leaderErr = Join(Shm, Config{Job: "shape-test", NP: 4, Procs: 2, Self: 0, Generation: 3, Dir: dir, Timeout: 2 * time.Second})
	}()
	go func() {
		defer wg.Done()
		staleTr, staleErr = Join(Shm, Config{Job: "shape-test", NP: 6, Procs: 2, Self: 1, Generation: 3, Dir: dir, Timeout: 2 * time.Second})
	}()
	wg.Wait()
	if leaderTr != nil {
		leaderTr.Close()
	}
	if staleTr != nil {
		staleTr.Close()
	}
	if leaderErr == nil {
		t.Error("leader bootstrapped a job whose only member was mis-shaped")
	}
	if staleErr == nil {
		t.Error("mis-shaped worker joined successfully")
	}
}
