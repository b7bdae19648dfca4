// Fraud detection: the paper's motivating class of workload — an
// event-driven pipeline whose scoring UDF is genuinely nondeterministic:
// it queries an external risk service (whose answers change per call),
// reads the wall clock, and draws random numbers for sampled auditing.
//
// A failure is injected into the scoring operator mid-run. Because Clonos
// causally logs every nondeterministic event and replays it during
// recovery, the external service is never re-queried, the regenerated
// alerts are byte-identical to what the failed task already emitted, and
// every transaction is scored exactly once.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"clonos"
)

// Transaction is one card payment.
type Transaction struct {
	ID     uint64
	Card   uint64
	Amount int64
}

// Alert is one scored transaction.
type Alert struct {
	Txn       uint64
	RiskScore uint64 // version counter from the external risk service
	ScoredAt  int64  // wall clock read through the Timestamp service
	Audited   bool   // random sampling through the RNG service
}

// Every type that crosses an edge or sits in operator state needs a
// registered codec (scalars, []byte and a few composites are built in):
// the registry is the only way the engine turns a value into bytes. A
// codec is three methods; fixed-width fields make EncodedSize a constant.
// The registry only ever hands a codec values of the type it was
// registered for.
var be = binary.BigEndian

type txnCodec struct{}

func (txnCodec) EncodedSize(any) int { return 24 }
func (txnCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	t := v.(Transaction)
	dst = be.AppendUint64(dst, t.ID)
	dst = be.AppendUint64(dst, t.Card)
	return be.AppendUint64(dst, uint64(t.Amount)), nil
}
func (txnCodec) Decode(b []byte) (any, error) {
	if len(b) != 24 {
		return nil, fmt.Errorf("txnCodec: %d bytes, want 24", len(b))
	}
	return Transaction{ID: be.Uint64(b), Card: be.Uint64(b[8:]), Amount: int64(be.Uint64(b[16:]))}, nil
}

type alertCodec struct{}

func (alertCodec) EncodedSize(any) int { return 25 }
func (alertCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	a := v.(Alert)
	dst = be.AppendUint64(dst, a.Txn)
	dst = be.AppendUint64(dst, a.RiskScore)
	dst = be.AppendUint64(dst, uint64(a.ScoredAt))
	if a.Audited {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}
func (alertCodec) Decode(b []byte) (any, error) {
	if len(b) != 25 {
		return nil, fmt.Errorf("alertCodec: %d bytes, want 25", len(b))
	}
	return Alert{Txn: be.Uint64(b), RiskScore: be.Uint64(b[8:]), ScoredAt: int64(be.Uint64(b[16:])), Audited: b[24] == 1}, nil
}

func init() {
	clonos.RegisterCodec(Transaction{}, txnCodec{})
	clonos.RegisterCodec(Alert{}, alertCodec{})
}

func main() {
	world := clonos.NewExternalWorld()
	topic := clonos.NewTopic("txns", 1)
	sink := clonos.NewSinkTopic(true)

	g := clonos.NewJobGraph()
	scored := g.FromTopic("txns", 1, topic).
		Map("score", func(ctx clonos.Context, e clonos.Element) (any, bool, error) {
			txn := e.Value.(Transaction)
			// External call: the risk service's answer changes on every
			// call — re-execution without causal logging would diverge.
			resp, err := ctx.Services().HTTPGet(fmt.Sprintf("risk/%d", txn.Card))
			if err != nil {
				return nil, false, err
			}
			score := be.Uint64(resp[len(resp)-8:])
			now, err := ctx.Services().CurrentTimeMillis()
			if err != nil {
				return nil, false, err
			}
			r, err := ctx.Services().RandomInt63()
			if err != nil {
				return nil, false, err
			}
			return Alert{Txn: txn.ID, RiskScore: score, ScoredAt: now, Audited: r%100 < 5}, true, nil
		})
	scored.ToSink("alerts", sink)

	cfg := clonos.DefaultConfig()
	cfg.World = world
	jb, err := clonos.Start(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer jb.Stop()

	const n = 5000
	go func() {
		for i := uint64(0); i < n; i++ {
			topic.Append(clonos.TopicRecord(i, time.Now().UnixMilli(), Transaction{ID: i, Card: i % 50, Amount: int64(i)}))
			time.Sleep(200 * time.Microsecond)
		}
		topic.Close()
	}()

	time.Sleep(400 * time.Millisecond)
	fmt.Println("killing the scoring operator mid-run...")
	if err := jb.InjectFailure(scored.Task(0)); err != nil {
		log.Fatal(err)
	}

	if !jb.WaitFinished(60 * time.Second) {
		log.Fatalf("job did not finish: %v", jb.Errors())
	}
	for _, e := range jb.Errors() {
		log.Fatalf("task error: %v", e)
	}

	alerts := sink.All()
	fmt.Printf("alerts delivered: %d (expected %d)\n", len(alerts), n)
	fmt.Printf("external risk-service calls: %d (for %d transactions; replayed calls are never re-issued,\n"+
		"  only the failed task's unobserved tail — past its last sent buffer — re-executes)\n", world.Calls(), n)
	if len(alerts) != n || world.Calls() < n || world.Calls() > n+500 {
		log.Fatal("exactly-once violated")
	}
	audited := 0
	for _, a := range alerts {
		if a.Value.(Alert).Audited {
			audited++
		}
	}
	fmt.Printf("randomly audited: %d (~5%% of %d, reproduced exactly across the failure)\n", audited, n)
	fmt.Println("OK: nondeterministic pipeline recovered with exactly-once semantics")
}
