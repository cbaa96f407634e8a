package invoke

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"harness2/internal/resilience"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/xdr"
)

// reply answers one pending call of a binary rung: a pooled frame, or
// the error that failed every call on its connection.
type reply struct {
	frame []byte
	err   error
}

// replyChs recycles reply channels. One goes back only once its one send
// has been received: never on the abandon path, where a late send may land.
var replyChs = sync.Pool{New: func() any { return make(chan reply, 1) }}

// waiters maps each pending call's id to the channel its caller awaits.
type waiters map[uint64]chan reply

// calls is a binary rung connection's pending-call table: the id each
// request carries, and the channel its caller awaits until the reader
// (XDR's readLoop, or shm's turn holder) takes the entry. The first
// failure fails every pending call and refuses later ones.
type calls struct {
	inflight *telemetry.Gauge // nil-safe: registered, unanswered calls
	down     atomic.Bool      // err is set; read without mu

	mu      sync.Mutex
	err     error
	nextID  uint64
	pending waiters
}

// register enrolls a call and returns its id and reply channel, unless
// the connection has failed.
func (t *calls) register() (uint64, chan reply, error) {
	ch := replyChs.Get().(chan reply)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		replyChs.Put(ch)
		return 0, nil, t.err
	}
	if t.pending == nil {
		t.pending = make(waiters)
	}
	t.nextID++
	t.pending[t.nextID] = ch
	t.inflight.Inc()
	return t.nextID, ch, nil
}

// take removes id's entry and returns its channel, or nil if the caller
// abandoned the call or the connection failed it.
func (t *calls) take(id uint64) chan reply {
	t.mu.Lock()
	ch, ok := t.pending[id]
	if ok {
		delete(t.pending, id)
		t.inflight.Dec()
	}
	t.mu.Unlock()
	return ch
}

// abandon withdraws a call whose caller gave up on it. A reply that was
// already taken for it is released if it has landed.
func (t *calls) abandon(id uint64, ch chan reply) {
	if t.take(id) == nil {
		select {
		case r := <-ch:
			xdr.PutFrameBuf(r.frame)
		default:
		}
	}
}

// fail fails every pending call with err and refuses later ones. The
// first failure wins; fail reports whether err was it.
func (t *calls) fail(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return false
	}
	t.err = err
	t.down.Store(true)
	t.inflight.Add(-int64(len(t.pending)))
	for id, ch := range t.pending {
		delete(t.pending, id)
		ch <- reply{err: err} // buffered: never blocks
	}
	return true
}

// failed reports whether the connection has failed.
func (t *calls) failed() bool { return t.down.Load() }

// binaryPort is a binary rung's port: session returns its live
// connection, opening a new one when there is none or its table failed.
type binaryPort interface {
	Port
	session(ctx context.Context) (binaryConn, error)
}

// binaryConn is one connection of a binary rung. register, abandon and
// failed come from the calls table it embeds.
type binaryConn interface {
	register() (uint64, chan reply, error)
	abandon(id uint64, ch chan reply)
	// send writes request id from e, framed by ReserveFrameHeaderV3; sent
	// reports whether any byte of it reached the transport.
	send(ctx context.Context, id uint64, e *xdr.Encoder) (sent bool, err error)
	// await returns id's reply. When ctx ends first it abandons the call
	// and returns ctx's error; the request may still run.
	await(ctx context.Context, id uint64, ch chan reply) (reply, error)
	failed() bool
}

// invokeBinary is the binary rungs' one call path: encode, session,
// register, send, await, decode. Its unsent rule is the only one they
// have: a failure is resilience.MarkUnsent iff no byte of the request
// reached the transport. Such a call, whose connection turned out dead,
// goes again on a fresh one, up to twice, unless the peer refused it.
func invokeBinary(ctx context.Context, p binaryPort, instance, op string, args []wire.Arg) ([]wire.Arg, error) {
	e := xdr.GetEncoder()
	defer xdr.PutEncoder(e)
	e.ReserveFrameHeaderV3()
	if err := encodeRequest(e, instance, op, args); err != nil {
		return nil, err
	}
	for redials := 0; ; redials++ {
		c, err := p.session(ctx)
		if err != nil {
			return nil, resilience.MarkUnsent(err)
		}
		id, ch, err := c.register()
		sent := false
		if err == nil {
			if sent, err = c.send(ctx, id, e); err != nil {
				c.abandon(id, ch)
			}
		}
		if err != nil {
			if !sent && c.failed() && redials < 2 && !errors.Is(err, ErrXDRRefused) {
				continue
			}
			err = fmt.Errorf("invoke: %v call %s: %w", p.Kind(), op, err)
			if !sent {
				err = resilience.MarkUnsent(err)
			}
			return nil, err
		}
		r, err := c.await(ctx, id, ch)
		if err != nil {
			return nil, err
		}
		replyChs.Put(ch)
		if r.err != nil {
			// The request was sent: the peer may have run it.
			return nil, fmt.Errorf("invoke: %v call %s: %w", p.Kind(), op, r.err)
		}
		out, err := decodeResponse(r.frame)
		xdr.PutFrameBuf(r.frame)
		return out, err
	}
}
