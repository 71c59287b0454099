package serve

import (
	"testing"

	"anc"
	"anc/internal/obs"
)

// sinks defeat dead-code elimination without allocating inside the
// measured closures.
var (
	sinkU32 uint32
)

// TestHotPathAllocs is the dynamic half of the //anclint:hotpath
// contract (DESIGN.md §14): every annotated function in this package
// must run allocation-free. The hotalloc analyzer rejects the obvious
// regressions syntactically; this test proves the property under the
// real compiler's escape analysis.
func TestHotPathAllocs(t *testing.T) {
	var hdr [frameHeaderSize]byte
	if n := testing.AllocsPerRun(1000, func() {
		putFrameHeader(&hdr, 42, 0xdeadbeef)
		l, c := parseFrameHeader(&hdr)
		sinkU32 += l + c
	}); n != 0 {
		t.Errorf("frame header kernels: %v allocs/op, want 0", n)
	}

	m := newServerMetrics(obs.NewRegistry(), &Server{})
	if n := testing.AllocsPerRun(1000, func() {
		m.request(OpActivateBatch)
		m.observe(OpActivateBatch, 1e-4)
		m.observe(OpClusters, 2e-4)
		m.readBytes(128)
		m.wroteBytes(256)
		m.connOpened()
		m.connClosed()
		m.slow()
	}); n != 0 {
		t.Errorf("serverMetrics handles: %v allocs/op, want 0", n)
	}

	// Observability off: a nil *serverMetrics must also be free.
	var off *serverMetrics
	if n := testing.AllocsPerRun(1000, func() {
		off.request(OpActivateBatch)
		off.observe(OpClusters, 1e-4)
		off.readBytes(1)
		off.wroteBytes(1)
	}); n != 0 {
		t.Errorf("nil serverMetrics: %v allocs/op, want 0", n)
	}

	// No label table (the dense path): the two translate calls every
	// request now passes through must cost nothing.
	var dense *labelTable
	req := &Request{Op: OpActivateBatch, Batch: []anc.Activation{{U: 0, V: 1, T: 1}}, Node: 3, U: 4, V: 5}
	resp := &Response{Members: []int{0, 1}, Clusters: [][]int{{2, 3}}}
	if n := testing.AllocsPerRun(1000, func() {
		if err := dense.toDense(req); err != nil {
			t.Fatal(err)
		}
		dense.toLabels(resp)
	}); n != 0 {
		t.Errorf("nil labelTable: %v allocs/op, want 0", n)
	}
}

// BenchmarkHotPathFrameHeader is run by `make bench-smoke` under
// -benchmem so a frame-header allocation regression shows up as a
// nonzero allocs/op in CI output.
func BenchmarkHotPathFrameHeader(b *testing.B) {
	var hdr [frameHeaderSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		putFrameHeader(&hdr, uint32(i), uint32(i>>1))
		l, c := parseFrameHeader(&hdr)
		sinkU32 += l + c
	}
}
