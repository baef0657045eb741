package mac

import (
	"testing"
	"time"

	"rica/internal/packet"
)

// TestEachHandedOffBracketsAckWindow pins the ownership gap the
// end-of-run drain must respect: between the receiver taking delivery
// and the ACK airtime closing the exchange, EachHandedOff reports the
// link — and outside that window it reports nothing. A run whose horizon
// lands inside the window would otherwise drain the sender's stale queue
// head and double-free the packet the receiver already owns.
func TestEachHandedOffBracketsAckWindow(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	d := NewDataPlane(k, m)

	pkt := packet.Get()
	pkt.Type = packet.TypeData
	pkt.Src, pkt.Dst = 0, 1
	pkt.From, pkt.To = 0, 1
	pkt.Size = 512

	handed := func() (links [][2]int) {
		d.EachHandedOff(func(from, to int) { links = append(links, [2]int{from, to}) })
		return
	}

	if got := handed(); len(got) != 0 {
		t.Fatalf("idle plane reports handed-off exchanges: %v", got)
	}
	var atDelivery [][2]int
	d.Register(1, func(*packet.Packet, time.Duration) { atDelivery = handed() })
	completed := false
	d.Send(0, 1, pkt, func(res SendResult) {
		completed = true
		if !res.OK {
			t.Errorf("in-range send failed: %+v", res)
		}
		if got := handed(); len(got) != 0 {
			t.Errorf("closed exchange still reported handed off: %v", got)
		}
	})
	if got := handed(); len(got) != 0 {
		t.Fatalf("exchange reported handed off before the packet arrived: %v", got)
	}
	k.Run(time.Second)
	if !completed {
		t.Fatal("exchange never completed")
	}
	if len(atDelivery) != 1 || atDelivery[0] != [2]int{0, 1} {
		t.Errorf("at delivery handed-off = %v, want [[0 1]]", atDelivery)
	}
	pkt.Release()
}

// TestExportExchangesAfterHandOffRelease is the regression test for
// checkpoint snapshots diverging only when worlds run concurrently: a
// destination releases the delivered packet while the exchange is still
// inside its ACK airtime, and the process-global pool may hand that very
// record to another run at once. The in-flight exchange must neither keep
// a reference to the released packet nor read its identity from it — the
// export reports the packet as it was sent.
func TestExportExchangesAfterHandOffRelease(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	d := NewDataPlane(k, m)

	pkt := packet.Get()
	pkt.Type = packet.TypeData
	pkt.ID = 77
	pkt.Src, pkt.Dst = 0, 1
	pkt.From, pkt.To = 0, 1
	pkt.Size = 512

	var during []ExchangeState
	d.Register(1, func(p *packet.Packet, _ time.Duration) {
		p.Release() // final destination: the packet goes back to the pool
		// Another run checks records out of the shared pool meanwhile.
		for i := 0; i < 4; i++ {
			other := packet.Get()
			other.ID, other.Size = 999, 64
			defer other.Release()
		}
		during = d.ExportExchanges()
	})
	d.Send(0, 1, pkt, func(SendResult) {})
	k.Run(time.Second)

	if len(during) != 1 {
		t.Fatalf("export inside the ACK window = %+v, want one exchange", during)
	}
	want := ExchangeState{From: 0, To: 1, Class: during[0].Class, Handed: true, PktID: 77, Size: 512}
	if during[0] != want {
		t.Fatalf("export inside the ACK window = %+v, want %+v", during[0], want)
	}
	for _, x := range d.x {
		if x != nil && x.pkt != nil {
			t.Fatal("exchange still references the packet the receiver released")
		}
	}
}
