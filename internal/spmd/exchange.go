package spmd

import (
	"cmp"
	"fmt"
	"slices"
)

// span is a strided interval of slots repeated at a pitch: base +
// r·pitch + i·stride for r in [0, reps), i in [0, count), row by row.
// A ghost row or a cyclic neighbour set is one span of one row, a
// plane of a remapped cell one of a row per line, and an irregular
// gather degenerates to spans of count 1.
type span struct {
	base, stride, count, reps, pitch int32
}

// strided is the one-row span of count slots from base by stride.
func strided(base, stride, count int32) span { return span{base, stride, count, 1, 0} }

// follows reports whether an interval starting at b (stride s, c
// values) continues the interval (base, stride, n), and returns the
// stride of the joined interval. A one-value interval has no stride of
// its own: it takes whatever step reaches b.
func follows(base, stride, n, b, s, c int32) (int32, bool) {
	if n == 1 {
		stride = b - base
	}
	return stride, int(b) == int(base)+int(n)*int(stride) && (c == 1 || s == stride)
}

// appendSpan appends a span to a list, joining it to the last span
// when both are one row and it continues it.
func appendSpan(spans []span, s span) []span {
	if n := len(spans); n > 0 && s.reps == 1 && spans[n-1].reps == 1 {
		last := &spans[n-1]
		if st, ok := follows(last.base, last.stride, last.count, s.base, s.stride, s.count); ok {
			last.stride, last.count = st, last.count+s.count
			return spans
		}
	}
	return append(spans, s)
}

// exchange is one worker's side of a compiled per-pair data movement:
// the messages it gathers and sends, and the messages it receives and
// scatters. Ghost exchange of a schedule (either producer) and the
// shipment of a remap are the same thing with a different destination
// slice — the worker's ghost buffer, or its new segment, into which a
// remap's moved blocks land straight.
type exchange struct {
	sends []pairSend
	recvs []pairRecv
}

// pairSend is one aggregated message to dst: the concatenation of its
// segments, elems values in all.
type pairSend struct {
	dst   int
	elems int
	segs  []gather
}

// gather is the part of a message read from one store: the values of
// data at its spans, in order. A message has one segment per source
// array.
type gather struct {
	data  []float64
	spans []span
}

// pairRecv scatters src's message of elems values: they land in the
// destination slice at the spans, in order.
type pairRecv struct {
	src   int
	elems int
	spans []span
}

// send is the first half of worker p's side of the exchange: gather
// and send every outgoing message, each into a buffer the transport
// recycles. The parallel dispatcher runs recv right after it; the
// sequential one runs every worker's send first.
func (x *exchange) send(e *Engine, p int) {
	for i := range x.sends {
		sp := &x.sends[i]
		buf := e.tr.Buffer(p, sp.dst, sp.elems)
		k := 0
		for _, sg := range sp.segs {
			for _, s := range sg.spans {
				if s.count == 1 && s.reps == 1 { // an irregular gather list is all of these
					buf[k] = sg.data[s.base]
					k++
					continue
				}
				for r := range int(s.reps) {
					part, j := buf[k:k+int(s.count)], int(s.base)+r*int(s.pitch)
					k += int(s.count)
					if s.stride == 1 {
						copy(part, sg.data[j:])
						continue
					}
					for q := range part {
						part[q] = sg.data[j]
						j += int(s.stride)
					}
				}
			}
		}
		e.tr.Send(p, sp.dst, buf)
	}
}

// recv is the second half: receive the incoming messages and scatter
// them into dest before the next Recv of the stream takes them back. A
// message whose length is not the plan's fails the engine: it comes
// from another process, and scattering a short one would leave stale
// ghosts behind silently.
func (x *exchange) recv(e *Engine, p int, dest []float64) {
	for i := range x.recvs {
		rp := &x.recvs[i]
		msg := e.tr.Recv(rp.src, p)
		if msg == nil {
			return // the transport has failed; its error is sticky
		}
		if len(msg) != rp.elems {
			e.tr.Fail(fmt.Errorf("spmd: message %d→%d carries %d values, plan expects %d", rp.src, p, len(msg), rp.elems))
			return
		}
		for _, s := range rp.spans {
			for r := range int(s.reps) {
				storeRun(dest, int(s.base)+r*int(s.pitch), int(s.stride), msg[:s.count])
				msg = msg[s.count:]
			}
		}
	}
}

// pairBuilder accumulates the traffic of each ordered (sender,
// receiver) pair during a compile, one span at a time, and then emits
// both endpoints' exchanges. Every producer — the regular compiler's
// ghost lines, a remap's moved blocks and the inspector lowering's
// gather lists — adds through it, so spans are joined in one place.
type pairBuilder map[[2]int][]*segBuild

// segBuild is the traffic of one pair read from one store. Segments
// are keyed by the store, not its data: every process of a job builds
// the identical plan, including for senders whose values it does not
// host.
type segBuild struct {
	st      *store
	elems   int
	slots   []span
	targets []span
}

// put adds to pair (s, w) a right-sized copy of sg, the pair's segment
// of sg.st, and empties sg for reuse: a producer collects segments in
// lists it keeps from build to build.
func (b pairBuilder) put(s, w int, sg *segBuild) {
	pr := [2]int{s, w}
	b[pr] = append(b[pr], &segBuild{sg.st, sg.elems, slices.Clone(sg.slots), slices.Clone(sg.targets)})
	*sg = segBuild{slots: sg.slots[:0], targets: sg.targets[:0]}
}

// add records that the sender ships the values of the segment's store
// at the slots from, and the receiver scatters them to the slots to:
// two spans of one size, walked row by row.
func (sg *segBuild) add(from, to span) {
	sg.elems += int(from.count) * int(from.reps)
	sg.slots = appendSpan(sg.slots, from)
	sg.targets = appendSpan(sg.targets, to)
}

// emit appends each accumulated pair's message, in deterministic
// (src, dst) order, to the exchanges exOf returns for its endpoints:
// the sender's gather order and the receiver's scatter order are two
// views of the same sequence.
func (b pairBuilder) emit(exOf func(p int) *exchange) {
	pairs := make([][2]int, 0, len(b))
	for pr := range b {
		pairs = append(pairs, pr)
	}
	slices.SortFunc(pairs, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, pr := range pairs {
		segs := make([]gather, len(b[pr]))
		targets := b[pr][0].targets
		elems := 0
		for i, sg := range b[pr] {
			segs[i] = gather{data: sg.st.data, spans: sg.slots}
			elems += sg.elems
			if i > 0 {
				targets = append(targets, sg.targets...)
			}
		}
		from, to := exOf(pr[0]), exOf(pr[1])
		from.sends = append(from.sends, pairSend{dst: pr[1], elems: elems, segs: segs})
		to.recvs = append(to.recvs, pairRecv{src: pr[0], elems: elems, spans: targets})
	}
}
