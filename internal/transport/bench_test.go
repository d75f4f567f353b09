package transport

import (
	"context"
	"testing"
)

func BenchmarkSimNetworkSend(b *testing.B) {
	n := NewSimNetwork()
	n.Register("dst", echoHandler(""))
	msg := Message{From: "src", To: "dst", Kind: KindBatch, Class: "energy", Payload: make([]byte, 512)}
	ctx := context.Background()
	b.SetBytes(msg.WireSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Send(ctx, msg); err != nil {
			b.Fatal(err)
		}
	}
}
