// Package rpc is the one call layer of the Σ-Dedupe prototype: the
// deduplication nodes' verbs (NewServer, DialContext) and the director's
// metadata verbs (NewDirectorServer, DialDirector) travel on it alike. It
// mirrors the paper's event-driven client design ("an asynchronous RPC
// implementation via message passing over TCP streams; all RPC requests
// are batched in order to minimize the round-trip overheads", §4.1).
//
// Messages are length-prefixed binary frames (internal/wire) after a
// handshake naming the protocol, wire.ProtoNode or wire.ProtoDirector. A
// request is kind | ID | op | timeoutMS ‖ argument, a reply kind | ID |
// err ‖ result, each walked by its verb's declaration (verb). IDs are
// client-chosen, so replies may arrive out of order and many calls share
// one connection; the caller's remaining deadline bounds the server's
// handler context, and a cancelled call is abandoned, its late reply
// dropped. Chunk payloads travel as raw ranges at the frame tail that the
// server hands to the store without re-copying, and empty successes of
// ack-eligible verbs coalesce into batched ack frames. A connection that
// breaks, or whose send is torn, is redialed by the next call; a seal
// after losing unsealed stores fails (Client).
package rpc

import (
	"context"
	"fmt"

	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/wire"
)

// opcode numbers a verb: the node's below 32, the director's from 32, so
// a verb sent to the wrong kind of server is refused as unknown. A number,
// once given, stays: retired node ops 4, 5, 7, 11 and 12 are reserved.
type opcode int

// class is a verb's set of class bits.
type class uint8

const (
	// stores: writes what only a later seal makes durable (the client
	// counts them for its lost-store accounting).
	stores class = 1 << iota
	// seals: makes the client's stores before it durable.
	seals
	// acked: an empty success is answered in the batched-ack frame.
	acked
	// payloads: the argument or the result ends in a chunk list whose
	// payloads ride at the frame tail — sent with writev from vectoredMin,
	// aliased in the receive frame.
	payloads
)

// verb is one op, served by S (*store.Engine or *director.Director), with
// argument A and result R: how each walks the wire — one walk both
// encodes and decodes, so the two sides cannot drift apart (coder) — its
// class bits, and the handler. Its Client method calls it; the server
// finds it by op.
type verb[S, A, R any] struct {
	op     opcode
	class  class
	args   func(*coder, *A)
	result func(*coder, *R)
	run    func(S, context.Context, A) (R, error)
}

// entry is a verb's server half.
type entry struct {
	class class
	serve func(ctx context.Context, target any, r *wire.Reader) (result func(*coder), err error)
}

// verbs finds a verb's server half by op.
var verbs = map[opcode]entry{}

// declare declares an op and registers its server half.
func declare[S, A, R any](op opcode, cl class, args func(*coder, *A), result func(*coder, *R), run func(S, context.Context, A) (R, error)) verb[S, A, R] {
	v := verb[S, A, R]{op, cl, args, result, run}
	verbs[op] = entry{cl, v.serve}
	return v
}

// serve decodes the argument from r, runs the verb on target and returns
// the walk that encodes its result. A target of the other protocol does
// not serve the op.
func (v verb[S, A, R]) serve(ctx context.Context, target any, r *wire.Reader) (func(*coder), error) {
	t, ok := target.(S)
	if !ok {
		return nil, unknownOp(v.op)
	}
	var a A
	x := coder{r: r}
	v.args(&x, &a)
	if err := x.done(); err != nil {
		return nil, fmt.Errorf("%w: op %d: %w", sderr.ErrMalformed, v.op, err)
	}
	res, err := v.run(t, ctx, a)
	return func(x *coder) { v.result(x, &res) }, err
}

// unknownOp is the reply to an op the server does not serve.
func unknownOp(op opcode) error { return fmt.Errorf("%w: unknown op %d", sderr.ErrMalformed, int(op)) }

// call makes the call v with argument a: the Client side of every verb.
func call[S, A, R any](c *Client, ctx context.Context, v verb[S, A, R], a A) (R, error) {
	res, frame, err := exchange(c, ctx, v, a)
	wire.PutBuf(frame)
	return res, err
}

// exchange is call returning the reply frame, which the caller then owns
// (nil for a batched ack): a payload-bearing result aliases it. A reply
// carries the verb's result whenever the verb ran, so an error reply may
// carry a partial one (Dedup's references).
func exchange[S, A, R any](c *Client, ctx context.Context, v verb[S, A, R], a A) (res R, frame []byte, err error) {
	id := c.nextID.Add(1)
	x := coder{b: appendRequestHeader(append(wire.GetBuf(1 << 10)[:0], 0, 0, 0, 0), id, v.op, wireTimeout(ctx))}
	v.args(&x, &a)
	body, payloads := x.frame()
	if frame, err = c.roundTrip(ctx, id, v.class, body, payloads); err != nil || frame == nil {
		return res, nil, err
	}
	r := wire.NewReader(frame)
	r.U8() // kind and ID: the read loop matched them
	r.U64()
	msg := r.String()
	if msg != "" && r.Len() == 0 {
		return res, frame, c.remoteError(msg) // the verb never ran
	}
	d := coder{r: r}
	v.result(&d, &res)
	derr := d.done()
	switch {
	case msg != "":
		if derr != nil {
			var zero R
			res = zero
		}
		return res, frame, c.remoteError(msg)
	case derr != nil:
		wire.PutBuf(frame)
		return res, nil, fmt.Errorf("rpc: decode reply to op %d: %w", v.op, derr)
	}
	return res, frame, nil
}

// none walks the empty argument or result.
func none(*coder, *struct{}) {}

// noArg adapts a method that takes no argument.
func noArg[S, R any](f func(S, context.Context) (R, error)) func(S, context.Context, struct{}) (R, error) {
	return func(s S, ctx context.Context, _ struct{}) (R, error) { return f(s, ctx) }
}

// noResult adapts a method that returns only an error.
func noResult[S, A any](f func(S, context.Context, A) error) func(S, context.Context, A) (struct{}, error) {
	return func(s S, ctx context.Context, a A) (struct{}, error) { return struct{}{}, f(s, ctx, a) }
}
