package blackbox_test

import (
	"strings"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/telemetry/blackbox"
)

// buildCrashedImage runs a deterministic workload — create, allocate,
// collect — on a tracked device and crashes it (flushed-lines-only), so
// the test decodes exactly what a post-mortem of a real crash would.
func buildCrashedImage(t *testing.T) []byte {
	t.Helper()
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: 1 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.EnableFlightRecorder(); err != nil {
		t.Fatal(err)
	}
	node, err := reg.Define(klass.MustInstance("pm/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef},
	))
	if err != nil {
		t.Fatal(err)
	}
	var prev layout.Ref
	for i := 0; i < 64; i++ {
		ref, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWord(ref, layout.FieldOff(0), uint64(i))
		if prev != layout.NullRef {
			h.SetWord(ref, layout.FieldOff(1), uint64(prev))
		}
		prev = ref
	}
	if err := h.SetRoot("head", prev); err != nil {
		t.Fatal(err)
	}
	if _, err := pgc.Collect(h, pgc.NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	}
	return h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
}

// TestPostmortemGolden: the heaptool postmortem pipeline — locate the
// ring on a raw crashed image, decode, render — produces the expected
// report: the GC cycle reconstructed phase by phase from journal events
// alone, without loading (or repairing) the heap.
func TestPostmortemGolden(t *testing.T) {
	img := buildCrashedImage(t)
	dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})

	off, size, err := pheap.BlackboxRegion(dev)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := blackbox.Decode(dev, off, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) == 0 {
		t.Fatal("crashed image decoded to an empty timeline")
	}

	// The workload's journal is deterministic: PLAB handoffs from the
	// allocation burst, then the full STW cycle in phase order.
	var kinds []string
	for _, e := range tl.Events {
		kinds = append(kinds, e.KindName())
	}
	joined := strings.Join(kinds, " ")
	wantChain := "gc.begin gc.markdone gc.stamp gc.compactdone redo.commit gc.end"
	if !strings.Contains(joined, wantChain) {
		t.Fatalf("timeline %q missing GC phase chain %q", joined, wantChain)
	}
	if kinds[0] != "plab.handoff" {
		t.Fatalf("first event = %s, want plab.handoff from the allocation burst", kinds[0])
	}

	var buf strings.Builder
	blackbox.WriteText(&buf, tl, 0)
	out := buf.String()
	for _, want := range []string{
		"flight recorder: ",
		"timeline:",
		"gc cycles:",
		"cycle 1: gc.begin (mode=stw",
		"-> gc.markdone -> gc.stamp -> gc.compactdone -> redo.commit",
		"-> gc.end (live=64",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// -last N bounds the timeline without touching the reconstruction.
	var short strings.Builder
	blackbox.WriteText(&short, tl, 2)
	if !strings.Contains(short.String(), "timeline (last 2 of ") {
		t.Fatalf("lastN render missing bounded header:\n%s", short.String())
	}
}

// TestPostmortemTornTail: tearing the final journal record (the crash
// caught the append mid-line) truncates the decoded timeline by exactly
// that record — the report renders from what survives and the torn
// record is never shown.
func TestPostmortemTornTail(t *testing.T) {
	img := buildCrashedImage(t)
	dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
	off, size, err := pheap.BlackboxRegion(dev)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := blackbox.Decode(dev, off, size)
	if err != nil {
		t.Fatal(err)
	}
	n := len(whole.Events)
	if n < 2 {
		t.Fatalf("workload journaled only %d events", n)
	}

	// Tear the newest record in place: payload byte flipped, checksum
	// now stale — what a crash mid-line-write leaves behind.
	last := whole.Events[n-1]
	slot := off + blackbox.HeaderSize + int((last.Seq-1)%uint64(whole.Capacity))*blackbox.RecordSize
	dev.WriteU64(slot+24, last.P0^0xFF)
	dev.Flush(slot, blackbox.RecordSize)

	tl, err := blackbox.Decode(dev, off, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != n-1 {
		t.Fatalf("torn tail decoded %d events, want %d", len(tl.Events), n-1)
	}
	if tl.Events[len(tl.Events)-1].Seq != last.Seq-1 {
		t.Fatalf("timeline does not end just before the torn record")
	}
	var buf strings.Builder
	blackbox.WriteText(&buf, tl, 0)
	if strings.Contains(buf.String(), "gc.end (live=64") && last.KindName() == "gc.end" {
		t.Fatalf("torn gc.end still rendered:\n%s", buf.String())
	}
}
