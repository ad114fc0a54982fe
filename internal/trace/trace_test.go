package trace

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"testing"

	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/workload"
)

// captureSmall records a small OLTP trace whose per-CPU streams cross
// the chunk boundary, so round trips exercise multi-chunk encode.
func captureSmall(t *testing.T, cpus, perCPU int) *Trace {
	t.Helper()
	gen := workload.OLTP(cpus)
	return Capture(gen, cpus, 1, perCPU/2, perCPU-perCPU/2)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := captureSmall(t, 3, ChunkLen+123)
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		if err := Encode(tr, &buf, workers); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf.Bytes(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("workers=%d: decoded trace differs from original", workers)
		}
		// The format should be far denser than the in-memory form.
		if raw := tr.Accesses() * 20; int64(buf.Len()) > raw/2 {
			t.Fatalf("encoded %d bytes for %d accesses — compression broken", buf.Len(), tr.Accesses())
		}
	}
}

func TestEncodeBytesIdenticalAtAnyWorkerCount(t *testing.T) {
	tr := captureSmall(t, 4, ChunkLen+7)
	var serial, parallel8 bytes.Buffer
	if err := Encode(tr, &serial, 1); err != nil {
		t.Fatal(err)
	}
	if err := Encode(tr, &parallel8, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel8.Bytes()) {
		t.Fatal("parallel encode produced different bytes than serial")
	}
}

func TestWriterInterleavedAppends(t *testing.T) {
	// Appending accesses round-robin across CPUs (as a Recorder does)
	// produces a different chunk order than Encode's stream order, but
	// must decode to the identical trace.
	tr := captureSmall(t, 3, ChunkLen+55)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Header, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ChunkLen+55; i++ {
		for cpu := range tr.Streams {
			w.Append(cpu, tr.Streams[cpu][i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("interleaved writer decode differs from captured trace")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tr := captureSmall(t, 2, 100)
	var buf bytes.Buffer
	if err := Encode(tr, &buf, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// A chunk whose count varint vastly exceeds what its payload can
	// hold must be rejected before the count sizes an allocation (an
	// unchecked 1<<40 would try to allocate terabytes of accesses).
	var hbuf bytes.Buffer
	w, err := NewWriter(&hbuf, Header{CPUs: 1, Name: "x", WarmupPerCPU: 1, MeasurePerCPU: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, workload.Access{Block: 1, Think: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The file ends with the chunk cpu(1B) count(1B) plen(1B)
	// payload(2B); rebuild it with count = 1<<40.
	valid := hbuf.Bytes()
	hugeCount := append([]byte{}, valid[:len(valid)-5]...)
	hugeCount = binary.AppendUvarint(hugeCount, 0)     // cpu
	hugeCount = binary.AppendUvarint(hugeCount, 1<<40) // count
	hugeCount = binary.AppendUvarint(hugeCount, 2)     // payload length
	hugeCount = append(hugeCount, valid[len(valid)-2:]...)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("NOTTRACE"), data[8:]...)},
		{"truncated", data[:len(data)-3]},
		{"oversized chunk count", hugeCount},
	} {
		if _, err := Decode(tc.data, 1); err == nil {
			t.Errorf("%s: decode accepted corrupt input", tc.name)
		}
	}
}

func TestRecorderTeesStream(t *testing.T) {
	cpus := 2
	gen := workload.Barnes(cpus)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CPUs: cpus, Name: gen.Name(), FootprintBytes: gen.FootprintBytes(), WarmupPerCPU: 10, MeasurePerCPU: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(gen, w)
	rngs := []*sim.Rand{sim.NewRand(7), sim.NewRand(9)}
	var want [][]workload.Access
	ref := workload.Barnes(cpus)
	refRngs := []*sim.Rand{sim.NewRand(7), sim.NewRand(9)}
	want = append(want, nil, nil)
	for i := 0; i < 30; i++ {
		for cpu := 0; cpu < cpus; cpu++ {
			got := rec.Next(cpu, rngs[cpu])
			wantAcc := ref.Next(cpu, refRngs[cpu])
			if got != wantAcc {
				t.Fatalf("recorder perturbed the stream at cpu %d access %d", cpu, i)
			}
			want[cpu] = append(want[cpu], got)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Streams, want) {
		t.Fatal("recorded streams differ from generated streams")
	}
}

func TestReplayerReplaysAndWraps(t *testing.T) {
	tr := captureSmall(t, 2, 50)
	r := NewReplayer(tr)
	if w, m := r.Quotas(); w != 25 || m != 25 {
		t.Fatalf("quotas = %d/%d, want 25/25", w, m)
	}
	var rng *sim.Rand // Next must ignore it
	for i := 0; i < 50; i++ {
		if got := r.Next(0, rng); got != tr.Streams[0][i] {
			t.Fatalf("access %d differs", i)
		}
	}
	if r.Wraps() != 0 {
		t.Fatalf("wrapped early: %d", r.Wraps())
	}
	if got := r.Next(0, rng); got != tr.Streams[0][0] || r.Wraps() != 1 {
		t.Fatalf("wrap-around broken: %+v wraps=%d", got, r.Wraps())
	}
}

func TestFileRoundTripAndSchemeResolution(t *testing.T) {
	tr := captureSmall(t, 4, 200)
	path := filepath.Join(t.TempDir(), "oltp.tstrace")
	if err := tr.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("file round trip differs")
	}

	gen, err := workload.ByName("trace:"+path, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := gen.(*Replayer)
	if !ok {
		t.Fatalf("resolved %T, want *Replayer", gen)
	}
	if rep.Name() != "OLTP" || rep.CPUs() != 4 {
		t.Fatalf("replayer header: %q/%d", rep.Name(), rep.CPUs())
	}
	if _, err := workload.ByName("trace:"+path, 8); err == nil {
		t.Fatal("cpu-count mismatch accepted")
	}
	if _, err := workload.ByName("trace:/no/such/file", 4); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := workload.CheckName("trace:" + path); err != nil {
		t.Fatal(err)
	}
	if err := workload.CheckName("bogus:x"); err == nil {
		t.Fatal("unknown scheme accepted by CheckName")
	}
}

// TestResolvedCacheTracksRewrites covers the trace:<path> decode cache:
// an unchanged file resolves to the shared decode, a rewritten file
// must not serve the stale one.
func TestResolvedCacheTracksRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tstrace")
	if err := captureSmall(t, 2, 20).WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	first, err := readResolved(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := readResolved(path); again != first {
		t.Fatal("unchanged file missed the cache")
	}
	if err := captureSmall(t, 4, 20).WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	second, err := readResolved(path)
	if err != nil {
		t.Fatal(err)
	}
	if second.Header.CPUs != 4 {
		t.Fatalf("rewritten file served stale decode (%d cpus)", second.Header.CPUs)
	}
}

func TestFoldInterleavesSources(t *testing.T) {
	acc := func(b int) workload.Access { return workload.Access{Block: coherence.Block(b), Think: 1} }
	tr := &Trace{
		Header: Header{CPUs: 4, Name: "x", WarmupPerCPU: 2, MeasurePerCPU: 4},
		Streams: [][]workload.Access{
			{acc(0), acc(1)},
			{acc(10), acc(11)},
			{acc(20), acc(21)},
			{acc(30), acc(31)},
		},
	}
	got, err := Apply(tr, 1, Fold(2))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]workload.Access{
		{acc(0), acc(20), acc(1), acc(21)},
		{acc(10), acc(30), acc(11), acc(31)},
	}
	if !reflect.DeepEqual(got.Streams, want) {
		t.Fatalf("fold streams = %v", got.Streams)
	}
	if got.Header.CPUs != 2 || got.Header.WarmupPerCPU != 4 || got.Header.MeasurePerCPU != 8 {
		t.Fatalf("fold header = %+v", got.Header)
	}
	if _, err := Apply(tr, 1, Fold(5)); err == nil {
		t.Fatal("fold above source cpus accepted")
	}
}

// TestUnevenFoldNeverWraps folds 5 streams onto 2: each target takes
// floor(5/2)=2 source streams (the remainder stream is dropped), so
// quotas scale by 2, every target is the same length, the phase
// boundary stays aligned, and a replay never wraps.
func TestUnevenFoldNeverWraps(t *testing.T) {
	tr := captureSmall(t, 5, 40) // 20 warm-up + 20 measured per cpu
	folded, err := Apply(tr, 1, Fold(2))
	if err != nil {
		t.Fatal(err)
	}
	if w, m := folded.Header.WarmupPerCPU, folded.Header.MeasurePerCPU; w != 40 || m != 40 {
		t.Fatalf("folded quotas = %d/%d, want 40/40", w, m)
	}
	for cpu, s := range folded.Streams {
		if len(s) != 80 {
			t.Fatalf("target %d holds %d accesses, want 80 (remainder stream not dropped?)", cpu, len(s))
		}
	}
	// Warm-up sections interleave before any measured access: target 0
	// folds sources 0 and 2, so entry 40 is source 0's first measured.
	if folded.Streams[0][40] != tr.Streams[0][20] {
		t.Fatal("folded warm-up/measured boundary misaligned")
	}
	r := NewReplayer(folded)
	var rng *sim.Rand
	for cpu := 0; cpu < 2; cpu++ {
		for i := 0; i < 80; i++ {
			r.Next(cpu, rng)
		}
	}
	if r.Wraps() != 0 {
		t.Fatalf("replay of an uneven fold wrapped %d times", r.Wraps())
	}
}

func TestScaleWindowMerge(t *testing.T) {
	tr := captureSmall(t, 2, 40)

	half, err := Apply(tr, 1, Scale(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if half.Header.FootprintBytes != tr.Header.FootprintBytes/2 {
		t.Fatalf("scaled footprint = %d", half.Header.FootprintBytes)
	}
	for cpu := range tr.Streams {
		for i, a := range tr.Streams[cpu] {
			if want := coherence.Block(int64(float64(a.Block) * 0.5)); half.Streams[cpu][i].Block != want {
				t.Fatalf("cpu %d access %d: block %d, want %d", cpu, i, half.Streams[cpu][i].Block, want)
			}
		}
	}

	win, err := Apply(tr, 1, Window(10, 15))
	if err != nil {
		t.Fatal(err)
	}
	if len(win.Streams[0]) != 15 || win.Streams[0][0] != tr.Streams[0][10] {
		t.Fatalf("window stream = %d accesses", len(win.Streams[0]))
	}
	if w, m := win.Header.WarmupPerCPU, win.Header.MeasurePerCPU; w+m > 15 {
		t.Fatalf("window quotas %d+%d exceed window", w, m)
	}

	// A window past the recorded warm-up keeps only measured accesses.
	mid, err := Apply(tr, 1, Window(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	if w, m := mid.Header.WarmupPerCPU, mid.Header.MeasurePerCPU; w != 0 || m != 20 {
		t.Fatalf("mid-window quotas = %d/%d, want 0/20", w, m)
	}
	// A warm-up-only window would replay without measuring anything.
	if _, err := Apply(tr, 1, Window(0, 15)); err == nil {
		t.Fatal("warm-up-only window accepted")
	}

	other := captureSmall(t, 2, 20)
	merged, err := Apply(win, 1, Merge(other))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(merged.Streams[0]), 15+20; got != want {
		t.Fatalf("merged stream = %d accesses, want %d", got, want)
	}
	if merged.Streams[0][0] != win.Streams[0][0] || merged.Streams[0][1] != other.Streams[0][0] {
		t.Fatal("merge did not interleave")
	}
	// Warm-up sections interleave before any measured access (win: 10+5,
	// other: 10+10 → 20 warm-up, then 15 measured), so the phase
	// boundary stays aligned; entry 20 is win's first measured access.
	if merged.Streams[0][20] != win.Streams[0][10] {
		t.Fatal("merged warm-up/measured boundary misaligned")
	}
	if merged.Header.Name != "OLTP+OLTP" {
		t.Fatalf("merged name = %q", merged.Header.Name)
	}
	bad := &Trace{Header: Header{CPUs: 3}, Streams: make([][]workload.Access, 3)}
	if _, err := Apply(win, 1, Merge(bad)); err == nil {
		t.Fatal("cpu-mismatched merge accepted")
	}
}
