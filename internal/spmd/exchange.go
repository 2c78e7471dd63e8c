package spmd

import "sort"

// exchange is one worker's side of a compiled per-pair data movement:
// the messages it gathers and sends, and the messages it receives and
// scatters. Ghost exchange of a schedule (either producer) and the
// shipment of a remap are the same thing with a different destination
// slice — the worker's ghost buffer, or its new segment.
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

// gather is the part of a message read from one store: value i is
// data[slots[i]]. A message has one segment per source array, so the
// common single-source statement pays one slice header per message,
// not one per element.
type gather struct {
	data  []float64
	slots []int32
}

// pairRecv scatters src's message: value k lands in the destination
// slice at targets[k].
type pairRecv struct {
	src     int
	targets []int32
}

// run performs worker p's side of the exchange: gather and send every
// outgoing message (one allocation each; the transport takes
// ownership), then receive the incoming ones and scatter them into
// dest.
func (x *exchange) run(e *Engine, p int, dest []float64) {
	for i := range x.sends {
		sp := &x.sends[i]
		buf := make([]float64, sp.elems)
		k := 0
		for _, sg := range sp.segs {
			for _, sl := range sg.slots {
				buf[k] = sg.data[sl]
				k++
			}
		}
		e.send(p, sp.dst, buf)
	}
	for i := range x.recvs {
		rp := &x.recvs[i]
		msg := e.recv(rp.src, p)
		for k, v := range msg {
			dest[rp.targets[k]] = v
		}
	}
}

// sendCounts is the exchange's traffic for an epoch in which each
// pair's message was charged msgs times and physically sent frames
// times.
func (x *exchange) sendCounts(msgs, frames int) []sendCount {
	out := make([]sendCount, len(x.sends))
	for i, sp := range x.sends {
		out[i] = sendCount{dst: sp.dst, elems: sp.elems, msgs: msgs, frames: frames}
	}
	return out
}

// pairBuilder accumulates the traffic of each ordered (sender,
// receiver) pair during a compile — element by element (add) from the
// regular schedule compiler and Remap, a whole pair at a time from the
// inspector lowering — and then emits both endpoints' exchanges.
type pairBuilder map[[2]int]*pairBuild

type pairBuild struct {
	segs []segBuild
}

// segBuild is the traffic of one pair read from one store. Segments
// are keyed by the store, not its data: every process of a job builds
// the identical plan, including for senders whose values it does not
// host.
type segBuild struct {
	st      *store
	slots   []int32
	targets []int32
}

// add records that worker s ships st's value at slot to worker w,
// which scatters it to target.
func (b pairBuilder) add(s, w int, st *store, slot, target int32) {
	pr := [2]int{s, w}
	pb := b[pr]
	if pb == nil {
		pb = &pairBuild{}
		b[pr] = pb
	}
	var sg *segBuild
	for i := range pb.segs {
		if pb.segs[i].st == st {
			sg = &pb.segs[i]
			break
		}
	}
	if sg == nil {
		pb.segs = append(pb.segs, segBuild{st: st})
		sg = &pb.segs[len(pb.segs)-1]
	}
	sg.slots = append(sg.slots, slot)
	sg.targets = append(sg.targets, target)
}

// emit appends each accumulated pair's message, in deterministic
// (src, dst) order, to the exchanges exOf returns for its endpoints:
// the sender's gather order and the receiver's scatter order are two
// views of the same list.
func (b pairBuilder) emit(exOf func(p int) *exchange) {
	pairs := make([][2]int, 0, len(b))
	for pr := range b {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pr := range pairs {
		pb := b[pr]
		segs := make([]gather, len(pb.segs))
		targets := pb.segs[0].targets
		for i, sg := range pb.segs {
			segs[i] = gather{data: sg.st.data, slots: sg.slots}
			if i > 0 {
				targets = append(targets, sg.targets...)
			}
		}
		from, to := exOf(pr[0]), exOf(pr[1])
		from.sends = append(from.sends, pairSend{dst: pr[1], elems: len(targets), segs: segs})
		to.recvs = append(to.recvs, pairRecv{src: pr[0], targets: targets})
	}
}
