package workload

import (
	"container/heap"
	"io"
	"math"
	"slices"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// referenceGenerate is the per-event generator loop as it stood before
// the Generator: one round per allocation, emitting straight to a
// callback, with its deaths in container/heap. FuzzGeneratorBatches
// holds the batch reader to it event for event.
func referenceGenerate(p Profile, emit func(trace.Event)) {
	r := xrand.New(p.Seed)
	cum := make([]float64, len(p.Classes))
	acc := 0.0
	for i, c := range p.Classes {
		acc += c.Fraction
		cum[i] = acc
	}
	sigma := p.SigmaObject
	if sigma == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-parameter sentinel; no arithmetic feeds it
		sigma = 0.8
	}
	mu := math.Log(p.MeanObject) - sigma*sigma/2
	instrPerByte := p.ExecSeconds * 10e6 / float64(p.TotalBytes)
	var (
		clock     uint64
		nextID    trace.ObjectID = 1
		deaths    refDeathHeap
		nextPhase = p.PhaseBytes
	)
	instrAt := func(c uint64) uint64 { return uint64(float64(c) * instrPerByte) }
	for clock < p.TotalBytes {
		for len(deaths) > 0 && deaths[0].clock <= clock {
			d := heap.Pop(&deaths).(death)
			emit(trace.Free(d.id, instrAt(clock)))
		}
		if nextPhase > 0 && clock >= nextPhase+16*kb {
			emit(trace.Mark("phase", instrAt(clock)))
			nextPhase += p.PhaseBytes
		}
		size := uint64(math.Max(16, math.Min(8192, r.LogNormal(mu, sigma))))
		id := nextID
		nextID++
		clock += size
		emit(trace.Alloc(id, size, instrAt(clock)))
		u := r.Float64()
		ci := 0
		for ci < len(cum)-1 && u >= cum[ci] {
			ci++
		}
		c := p.Classes[ci]
		switch {
		case c.Permanent:
		case c.DieAtPhaseEnd:
			phaseEnd := (clock/p.PhaseBytes + 1) * p.PhaseBytes
			jitter := uint64(r.Exp(4 * kb))
			heap.Push(&deaths, death{clock: phaseEnd + jitter, id: id})
		default:
			life := uint64(r.Exp(c.MeanLife)) + 1
			heap.Push(&deaths, death{clock: clock + life, id: id})
		}
	}
	for len(deaths) > 0 && deaths[0].clock <= clock {
		d := heap.Pop(&deaths).(death)
		emit(trace.Free(d.id, instrAt(clock)))
	}
}

// FuzzGeneratorBatches builds a valid profile from a paper profile, a
// seed, a scale, a class mix and a phase length, reads its Generator
// in fuzzed batch lengths (zero included), and requires the stream to
// equal referenceGenerate's event for event, with ReadBatch's contract
// at the end: a short count with a nil error, then (0, io.EOF) on
// every later call. Short mean lifetimes make many deaths share a
// clock, so the order of equal-clock frees is exercised, and phases
// shorter than one allocation put a mark in most rounds.
func FuzzGeneratorBatches(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint16(100), uint8(1), uint8(0), uint8(50), uint16(1000), uint16(0), []byte{64})
	f.Add(uint64(7), uint8(3), uint16(400), uint8(2), uint8(30), uint8(60), uint16(3), uint16(2000), []byte{1, 0, 200, 17})
	f.Add(uint64(9), uint8(4), uint16(999), uint8(90), uint8(0), uint8(9), uint16(40000), uint16(0), []byte{255, 3})
	f.Add(uint64(3), uint8(2), uint16(50), uint8(0), uint8(200), uint8(5), uint16(1), uint16(7), []byte{0, 0, 5})
	f.Fuzz(func(t *testing.T, seed uint64, base uint8, scale uint16, perm, phased, churn uint8, life, phaseLen uint16, lens []byte) {
		p := PaperProfiles()[int(base)%6].Scale(float64(1+scale%1000) / 1e5)
		p.Seed ^= seed
		p.PhaseBytes = uint64(phaseLen)
		wPerm, wPhase, wChurn := float64(perm), float64(phased), 1+float64(churn)
		if p.PhaseBytes == 0 {
			wPhase = 0
		}
		sum := wPerm + wPhase + wChurn
		p.Classes = []Class{{Fraction: wChurn / sum, MeanLife: 1 + float64(life)}}
		if wPerm > 0 {
			p.Classes = append(p.Classes, Class{Fraction: wPerm / sum, Permanent: true})
		}
		if wPhase > 0 {
			p.Classes = append(p.Classes, Class{Fraction: wPhase / sum, DieAtPhaseEnd: true})
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("built an invalid profile: %v", err)
		}
		var want []trace.Event
		referenceGenerate(p, func(e trace.Event) { want = append(want, e) })

		if !slices.ContainsFunc(lens, func(b byte) bool { return b%100 != 0 }) {
			lens = []byte{1} // every read empty would never finish
		}
		g, err := p.Generator()
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Event
		buf := make([]trace.Event, 100)
		for call := 0; ; call++ {
			k := int(lens[call%len(lens)]) % 100
			n, err := g.ReadBatch(buf[:k])
			if n < 0 || n > k {
				t.Fatalf("read %d: ReadBatch(%d events) returned %d", call, k, n)
			}
			got = append(got, buf[:n]...)
			if err == io.EOF {
				if n != 0 {
					t.Fatalf("read %d: io.EOF came with %d events", call, n)
				}
				break
			}
			if err != nil {
				t.Fatalf("read %d: %v", call, err)
			}
			if n < k {
				if n2, err := g.ReadBatch(buf); n2 != 0 || err != io.EOF {
					t.Fatalf("after a short batch: ReadBatch = (%d, %v), want (0, io.EOF)", n2, err)
				}
				break
			}
			if len(got) > len(want) {
				t.Fatalf("generator ran past the reference's %d events", len(want))
			}
		}
		if n, err := g.ReadBatch(buf); n != 0 || err != io.EOF {
			t.Fatalf("after the end: ReadBatch = (%d, %v), want (0, io.EOF)", n, err)
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("batched stream differs from the reference at event %d (%d vs %d events)", i, len(got), len(want))
		}
	})
}
