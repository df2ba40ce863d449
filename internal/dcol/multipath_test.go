package dcol

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"hpop/internal/sim"
)

// mpRig wires a multipath listener plus n waypoint relays on loopback.
type mpRig struct {
	listener *MultipathListener
	relays   []*Relay
	addrs    []string
}

func newMPRig(t *testing.T, waypoints int) *mpRig {
	t.Helper()
	ln, err := ListenMultipath("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	rig := &mpRig{listener: ln}
	for i := 0; i < waypoints; i++ {
		r, err := StartRelay("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		rig.relays = append(rig.relays, r)
		rig.addrs = append(rig.addrs, r.Addr())
	}
	return rig
}

func randomPayload(seed uint64, n int) []byte {
	rng := sim.NewRNG(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Uint64())
	}
	return out
}

// sendAndReceive runs a full transfer and returns the received bytes.
func sendAndReceive(t *testing.T, rig *mpRig, sender *MultipathSender, payload []byte) []byte {
	t.Helper()
	var wg sync.WaitGroup
	var received []byte
	var recvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := rig.listener.AcceptSession()
		if err != nil {
			recvErr = err
			return
		}
		received, recvErr = sess.ReadAll()
	}()
	if _, err := sender.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	return received
}

func TestMultipathDirectOnly(t *testing.T) {
	rig := newMPRig(t, 0)
	sender, err := DialMultipath("s1", rig.listener.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := randomPayload(1, 200<<10)
	got := sendAndReceive(t, rig, sender, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted over single subflow")
	}
}

func TestMultipathStripesAcrossWaypoints(t *testing.T) {
	rig := newMPRig(t, 2)
	sender, err := DialMultipath("s2", rig.listener.Addr(), rig.addrs)
	if err != nil {
		t.Fatal(err)
	}
	if sender.Subflows() != 3 {
		t.Fatalf("subflows = %d, want 3 (direct + 2 waypoints)", sender.Subflows())
	}
	payload := randomPayload(2, 1<<20)
	got := sendAndReceive(t, rig, sender, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across striped subflows")
	}
	// Every subflow carried a meaningful share.
	for i, n := range sender.SentBySubflow {
		if n < int64(len(payload))/6 {
			t.Errorf("subflow %d carried only %d bytes", i, n)
		}
	}
	// The waypoint relays really forwarded traffic.
	for i, r := range rig.relays {
		if r.BytesRelayed() == 0 {
			t.Errorf("relay %d saw no bytes", i)
		}
	}
}

func TestMultipathSubflowFailover(t *testing.T) {
	rig := newMPRig(t, 2)
	sender, err := DialMultipath("s3", rig.listener.Addr(), rig.addrs)
	if err != nil {
		t.Fatal(err)
	}
	payload := randomPayload(3, 1<<20)
	sess, err := rig.listener.AcceptSession()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var received []byte
	var recvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		received, recvErr = sess.ReadAll()
	}()

	// Send the first half, kill a waypoint subflow, send the rest. The kill
	// waits for all three subflows to join: a session whose every joined
	// subflow ended before end-of-stream is broken, and the waypoint
	// subflow can be the first to join and the first to end.
	half := len(payload) / 2
	if _, err := sender.Write(payload[:half]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sess.mu.Lock()
		joined := sess.subflows
		sess.mu.Unlock()
		if joined == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 subflows joined", joined)
		}
	}
	sender.FailSubflow(1)
	if _, err := sender.Write(payload[half:]); err != nil {
		t.Fatal(err)
	}
	if sender.Subflows() != 2 {
		t.Errorf("subflows after failure = %d, want 2", sender.Subflows())
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(received, payload) {
		t.Fatal("payload corrupted across subflow failure")
	}
}

func TestMultipathAllSubflowsDead(t *testing.T) {
	rig := newMPRig(t, 1)
	sender, err := DialMultipath("s4", rig.listener.Addr(), rig.addrs)
	if err != nil {
		t.Fatal(err)
	}
	sender.FailSubflow(0)
	sender.FailSubflow(1)
	if _, err := sender.Write(make([]byte, 64<<10)); err != ErrNoSubflows {
		t.Errorf("write with all subflows dead err = %v", err)
	}
}

func TestMultipathWriteAfterClose(t *testing.T) {
	rig := newMPRig(t, 0)
	sender, err := DialMultipath("s5", rig.listener.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sender.Close()
	if _, err := sender.Write([]byte("late")); err != ErrSessionClosed {
		t.Errorf("write after close err = %v", err)
	}
	// Double close is fine.
	if err := sender.Close(); err != nil {
		t.Errorf("double close err = %v", err)
	}
}

func TestMultipathReceiverReportsBrokenTransfer(t *testing.T) {
	rig := newMPRig(t, 0)
	sender, err := DialMultipath("s6", rig.listener.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var recvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := rig.listener.AcceptSession()
		if err != nil {
			recvErr = err
			return
		}
		_, recvErr = sess.ReadAll()
	}()
	sender.Write(make([]byte, 32<<10))
	// Kill the only subflow without sending end-of-stream.
	sender.FailSubflow(0)
	wg.Wait()
	if recvErr != io.ErrUnexpectedEOF {
		t.Errorf("broken transfer err = %v, want ErrUnexpectedEOF", recvErr)
	}
}

func TestMultipathConcurrentSessions(t *testing.T) {
	rig := newMPRig(t, 1)
	const sessions = 4
	payloads := make([][]byte, sessions)
	results := make(map[int][]byte, sessions)
	var mu sync.Mutex
	var wg sync.WaitGroup

	// Receiver: accept all sessions; map payload back to sender by length.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sessions; i++ {
			sess, err := rig.listener.AcceptSession()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				data, err := sess.ReadAll()
				if err != nil {
					return
				}
				mu.Lock()
				results[len(data)] = data
				mu.Unlock()
			}()
		}
	}()

	for i := 0; i < sessions; i++ {
		i := i
		payloads[i] = randomPayload(uint64(10+i), (i+1)*100<<10) // distinct sizes
		wg.Add(1)
		go func() {
			defer wg.Done()
			sender, err := DialMultipath(
				"concurrent-"+string(rune('a'+i)), rig.listener.Addr(), rig.addrs)
			if err != nil {
				t.Error(err)
				return
			}
			sender.Write(payloads[i])
			sender.Close()
		}()
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		got, ok := results[len(payloads[i])]
		if !ok || !bytes.Equal(got, payloads[i]) {
			t.Errorf("session %d payload mismatch", i)
		}
	}
}
