package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawFrame is one tcp frame as it appears on the wire.
func rawFrame(kind byte, body []byte) []byte {
	return appendFrame(nil, kind, body, nil)
}

func dataBody(src, dst uint32, corr uint64, vals ...float64) []byte {
	body := binary.LittleEndian.AppendUint32(nil, src)
	body = binary.LittleEndian.AppendUint32(body, dst)
	body = binary.LittleEndian.AppendUint64(body, corr)
	return appendFloats(body, vals)
}

var (
	seedHello  = encodeHello(hello{sub: helloJoin, generation: 3, np: 8, procs: 4, from: 2, job: "seed", addr: "127.0.0.1:9137"})
	seedRoster = encodeRoster([]string{"", "127.0.0.1:1001", "127.0.0.1:1002"})
)

func FuzzDecodeHello(f *testing.F) {
	f.Add(seedHello)
	f.Add(seedHello[:20])               // shorter than the fixed part
	f.Add(seedHello[:len(seedHello)-3]) // truncated inside a string
	f.Add(append([]byte{helloPeer, 9, 0, 0, 0}, seedHello[5:]...))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, err := decodeHello(body)
		if err != nil {
			return
		}
		again, err := decodeHello(encodeHello(h))
		if err != nil || again != h {
			t.Fatalf("hello %+v does not survive a round trip: %+v, %v", h, again, err)
		}
	})
}

func FuzzDecodeRoster(f *testing.F) {
	f.Add(seedRoster, 3)
	f.Add(seedRoster, 4)                     // wrong process count
	f.Add(seedRoster[:len(seedRoster)-1], 3) // truncated
	f.Add([]byte{255, 255, 255, 255}, -1)    // a count no job has
	f.Fuzz(func(t *testing.T, body []byte, procs int) {
		if procs > 1<<12 {
			procs %= 1 << 12 // the job's own count, never outside input
		}
		addrs, err := decodeRoster(body, procs)
		if err != nil {
			return
		}
		if len(addrs) != procs {
			t.Fatalf("roster of %d addresses accepted for %d processes", len(addrs), procs)
		}
		again, err := decodeRoster(encodeRoster(addrs), procs)
		if err != nil || !reflect.DeepEqual(again, addrs) {
			t.Fatalf("roster %q does not survive a round trip: %q, %v", addrs, again, err)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the framing layer as a
// pre-handshake connection would see them, and every frame that comes
// out to the decoder its kind selects: nothing may panic, allocate
// beyond the cap or accept a payload that is not whole floats. Frames
// are read one after another through the connection's one scratch
// buffer and data decodes into the pool's recycled slices, so each
// frame must also equal its own bytes and a fresh decode of them —
// a short frame after a long one keeps no stale tail.
func FuzzReadFrame(f *testing.F) {
	f.Add(rawFrame(frameHello, seedHello))
	f.Add(rawFrame(frameRoster, seedRoster))
	f.Add(rawFrame(frameData, dataBody(1, 2, 7, 1.5, 2.5)))
	f.Add(rawFrame(frameBcast, appendFloats([]byte{1, 0, 0, 0}, []float64{3})))
	f.Add(rawFrame(frameBarrier, []byte{1, 0, 0, 0}))
	f.Add(rawFrame(frameRelease, nil))
	f.Add(rawFrame(frameHeart, nil))
	f.Add(rawFrame(frameData, dataBody(1, 2, 7, 1.5))[:20])             // truncated
	f.Add([]byte{0, 0, 0, 64, frameData})                               // 1 GiB claimed
	f.Add(rawFrame(frameData, append(dataBody(1, 2, 7, 1.5), 1, 2, 3))) // odd payload
	f.Add(rawFrame(frameData, dataBody(9, 2, 7)))                       // rank out of range
	f.Add(append(rawFrame(frameData, dataBody(1, 2, 7, 1, 2, 3, 4)),    // long, then short
		rawFrame(frameData, dataBody(1, 2, 8, math.NaN()))...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := &tconn{br: bufio.NewReader(bytes.NewReader(stream))}
		bufs := newBufPool(4)
		for off := 0; ; {
			kind, body, err := c.readFrame(maxHandshakeFrame)
			if err != nil {
				return
			}
			if len(body) >= maxHandshakeFrame {
				t.Fatalf("frame of %d bytes passed the %d-byte cap", 1+len(body), maxHandshakeFrame)
			}
			if want := stream[off+5 : off+5+len(body)]; kind != stream[off+4] || !bytes.Equal(body, want) {
				t.Fatalf("frame at byte %d read as kind %d %x, want kind %d %x", off, kind, body, stream[off+4], want)
			}
			off += 5 + len(body)
			switch kind {
			case frameHello:
				decodeHello(body)
			case frameRoster:
				decodeRoster(body, 3)
			case frameData:
				src, dst, m, err := decodeData(body, 4, bufs)
				if err != nil {
					continue
				}
				if src < 1 || src > 4 || dst < 1 || dst > 4 || 16+8*len(m.msg) != len(body) {
					t.Fatalf("data frame accepted as pair (%d,%d) with %d floats from a %d-byte body", src, dst, len(m.msg), len(body))
				}
				_, _, fresh, _ := decodeData(bytes.Clone(body), 4, newBufPool(4))
				for i := range fresh.msg {
					if math.Float64bits(m.msg[i]) != math.Float64bits(fresh.msg[i]) {
						t.Fatalf("pooled decode of pair (%d,%d) differs from a fresh one at value %d: %v, want %v", src, dst, i, m.msg, fresh.msg)
					}
				}
				bufs.put(src, dst, m.msg) // the next frame of the pair decodes into it
			default:
				if vals, err := decodeFloats(body, func(n int) []float64 { return make([]float64, n) }); err == nil && 8*len(vals) != len(body) {
					t.Fatalf("%d floats decoded from %d bytes", len(vals), len(body))
				}
			}
		}
	})
}

// TestReadFrameLengthCap: the claimed length is checked against the
// caller's cap before a byte is allocated for it.
func TestReadFrameLengthCap(t *testing.T) {
	huge := []byte{0, 0, 0, 64, frameHello} // claims 1 GiB
	read := func(b []byte, size int) (byte, []byte, error) {
		return (&tconn{br: bufio.NewReaderSize(bytes.NewReader(b), size)}).readFrame(maxHandshakeFrame)
	}
	if _, _, err := read(huge, 4096); err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("1 GiB handshake frame: err = %v, want a length refusal", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		read(huge, 16)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing ten oversized frames allocated %d bytes", grew)
	}
	ok := rawFrame(frameHello, seedHello)
	if kind, body, err := read(ok, 4096); err != nil || kind != frameHello || !bytes.Equal(body, seedHello) {
		t.Fatalf("valid hello frame: kind %d err %v", kind, err)
	}
}

// TestStrayDialerDoesNotStopTheJob: a connection to the leader's
// rendezvous port that is not a member — here one claiming a 1 GiB
// hello — is refused on its own, and the job still bootstraps.
func TestStrayDialerDoesNotStopTheJob(t *testing.T) {
	addr := freeAddr(t)
	base := Config{Job: "stray-test", NP: 2, Procs: 2, Generation: 1, Addr: addr, Timeout: 10 * time.Second}
	trs := make([]Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	join := func(i int) {
		defer wg.Done()
		cfg := base
		cfg.Self = i
		trs[i], errs[i] = Join(TCP, cfg)
	}
	wg.Add(1)
	go join(0)
	var stray net.Conn
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if stray, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never bound %s: %v", addr, err)
		}
	}
	defer stray.Close()
	stray.Write([]byte{0, 0, 0, 64, frameHello, 1, 2, 3})
	// The leader hangs up on the stray: its read ends.
	stray.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := stray.Read(make([]byte, 1)); err == nil {
		t.Fatalf("leader answered a stray dialer with %d byte(s)", n)
	}
	wg.Add(1)
	go join(1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d bootstrap after a stray dialer: %v", i, err)
		}
		defer trs[i].Close()
	}
}

// TestOddPayloadFailsTransport: a data frame whose payload is not a
// whole number of floats must fail the transport, naming the pair, on
// both wires that parse bytes another process wrote — never deliver a
// silently truncated message.
func TestOddPayloadFailsTransport(t *testing.T) {
	inject := map[string]func(c *core){
		TCP: func(c *core) {
			body := append(dataBody(1, 2, 7, 1.5), 1, 2, 3)
			// The sending end of rank 2's data socket.
			if _, err := c.link.(*tcpLink).out[1].writeFrame(frameData, body, nil); err != nil {
				t.Fatal(err)
			}
		},
		Shm: func(c *core) {
			r := c.link.(*shmLink).dataRing(1, 2)
			var hdr [shmDataHdr]byte
			binary.LittleEndian.PutUint32(hdr[:], 11)
			r.mu.Lock()
			r.writeNow(hdr[:])
			r.writeNow(make([]byte, 11))
			r.mu.Unlock()
		},
	}
	for kind, write := range inject {
		t.Run(kind, func(t *testing.T) {
			tr, err := New(kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			write(tr.(*core))
			within(t, "Recv of a malformed frame", func() {
				if msg := tr.Recv(1, 2); msg != nil {
					t.Errorf("malformed frame delivered as %v", msg)
				}
			})
			if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "pair (1,2)") || !strings.Contains(err.Error(), "multiple of 8") {
				t.Fatalf("Err() = %v, want a positioned payload-length error", err)
			}
		})
	}
}

// TestDataSocketRefusesOtherFrames: a data socket end carries data
// frames for its one rank only, so a heart frame, or a data frame for
// another rank, read off it fails the transport with the reason and
// the receiving rank.
func TestDataSocketRefusesOtherFrames(t *testing.T) {
	for _, f := range []struct {
		kind byte
		body []byte
		want string
	}{
		{frameHeart, nil, "frame kind 7 on the data connection of rank 2"},
		{frameData, dataBody(1, 3, 7, 1.5), "pair (1,3) on the data connection of rank 2"},
	} {
		tr, err := New(TCP, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.(*core).link.(*tcpLink).out[1].writeFrame(f.kind, f.body, nil); err != nil {
			t.Fatal(err)
		}
		within(t, "Recv of a misdirected frame", func() {
			if msg := tr.Recv(1, 2); msg != nil {
				t.Errorf("frame kind %d delivered as %v", f.kind, msg)
			}
		})
		if err := tr.Err(); err == nil || !strings.Contains(err.Error(), f.want) {
			t.Errorf("Err() = %v, want it to name %q", err, f.want)
		}
		tr.Close()
	}
}

// countConn is a net.Conn that records every Write.
type countConn struct {
	net.Conn
	writes [][]byte
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(b))
	return len(b), nil
}

// TestOneWritePerFrame: a data frame of a 512-value ghost row — 4117
// bytes, just over what a default bufio.Writer holds — a control frame
// and a heart frame each reach their socket in exactly one Write (the
// data frame its data socket's, the others the control connection's),
// and a data frame is metered at its size on the wire, 5+16+8n bytes.
// push hands the sent slice back to its stream's pool.
func TestOneWritePerFrame(t *testing.T) {
	cc, dc := &countConn{}, &countConn{}
	l := &tcpLink{cfg: Config{NP: 2, Procs: 2}, bufs: newBufPool(2), wbuf: make([][]byte, 4),
		conns: []*tconn{nil, newTconn(cc)}, out: []*tconn{nil, newTconn(dc)}, pump: startPump(func() bool { return false })}
	defer l.pump.close()
	msg := make([]float64, 512)
	for i := range msg {
		msg[i] = float64(i) / 3
	}
	if n, _ := l.push(1, 2, inMsg{corr: 9, msg: msg}); n != 5+16+8*len(msg) {
		t.Fatalf("data frame metered at %d bytes, want 5+16+8·512 = 4117", n)
	}
	if want := [][]byte{rawFrame(frameData, dataBody(1, 2, 9, msg...))}; !reflect.DeepEqual(dc.writes, want) {
		t.Fatalf("data socket writes %d, want the data frame in one (%d):\n got %x\nwant %x", len(dc.writes), len(want), dc.writes, want)
	}
	if got := l.bufs.get(1, 2, len(msg)); &got[0] != &msg[0] {
		t.Fatal("push did not hand the sent slice back to the pool")
	}
	want := [][]byte{rawFrame(frameBcast, appendFloats([]byte{0, 0, 0, 0}, []float64{1.5, 2.5}))}
	if n, ok := l.sendCtl(1, ctlBcast, []float64{1.5, 2.5}); !ok || n != len(want[0]) {
		t.Fatalf("control frame metered at %d bytes (ok=%v), want %d", n, ok, len(want[0]))
	}
	want = append(want, rawFrame(frameHeart, nil))
	l.beat(0)
	if !reflect.DeepEqual(cc.writes, want) {
		t.Fatalf("writes %d, want one per frame (%d):\n got %x\nwant %x", len(cc.writes), len(want), cc.writes, want)
	}
}
