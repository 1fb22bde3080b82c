package tcp

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

// TestConnKeyRoundTrip pins the demux key's packing as a bijection: every
// (local port, remote node, remote port) maps to one word, and the word
// gives all three back, so two connections can never share a key.
func TestConnKeyRoundTrip(t *testing.T) {
	unpack := func(k connKey) (uint16, packet.Addr) {
		return uint16(k >> 48), packet.Addr{Node: packet.NodeID(int32(uint32(k >> 16))), Port: uint16(k)}
	}
	roundTrip := func(local uint16, node int32, port uint16) bool {
		remote := packet.Addr{Node: packet.NodeID(node), Port: port}
		gotLocal, gotRemote := unpack(makeConnKey(local, remote))
		return gotLocal == local && gotRemote == remote
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		local uint16
		node  int32
		port  uint16
	}{{0, 0, 0}, {1<<16 - 1, -1, 1<<16 - 1}, {49152, 1<<31 - 1, 80}, {1, -1 << 31, 0}} {
		if !roundTrip(c.local, c.node, c.port) {
			t.Errorf("key (%d, %d, %d) does not round-trip", c.local, c.node, c.port)
		}
	}
}
