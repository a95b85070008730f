package simulate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bgpintent/internal/topology"
)

// viewDigest is a SHA-256 over every field of every view, in order.
func viewDigest(views []View) string {
	h := sha256.New()
	var b []byte
	for i := range views {
		v := &views[i]
		b = binary.LittleEndian.AppendUint32(b[:0], v.VP)
		b = append(b, v.Prefix.String()...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Path)))
		for _, a := range v.Path {
			b = binary.LittleEndian.AppendUint32(b, a)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Comms)))
		for _, c := range v.Comms {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.LargeComms)))
		for _, l := range v.LargeComms {
			b = binary.LittleEndian.AppendUint32(b, l.GlobalAdmin)
			b = binary.LittleEndian.AppendUint32(b, l.LocalData1)
			b = binary.LittleEndian.AppendUint32(b, l.LocalData2)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// mrtDigests are SHA-256s of the RIB and the updates bytes every
// collector writes for a day.
func mrtDigests(t *testing.T, sim *Simulator, day *DayResult) (rib, updates string) {
	t.Helper()
	ts := uint32(1714521600 + day.Day*86400)
	hr, hu := sha256.New(), sha256.New()
	for c := 0; c < sim.Collectors(); c++ {
		var buf bytes.Buffer
		if err := sim.WriteRIB(&buf, ts, c, day); err != nil {
			t.Fatal(err)
		}
		hr.Write(buf.Bytes())
		buf.Reset()
		if err := sim.WriteUpdates(&buf, ts+3600, c, day, 0.2); err != nil {
			t.Fatal(err)
		}
		hu.Write(buf.Bytes())
	}
	return fmt.Sprintf("%x", hr.Sum(nil)), fmt.Sprintf("%x", hu.Sum(nil))
}

// pinnedDays are the digests of TinyConfig days as the simulator drew
// them when each prefix still allocated its routes on the heap. A change
// to how a day is computed must leave the simulated world where it is.
var pinnedDays = []struct {
	seed                int64
	day                 int
	views, rib, updates string
}{
	{1, 0,
		"1d5718687a75b04460c322491aaa656a243939a74ee9cdbd840ccd76e44ed676",
		"441830145db8623757f1f349d35f809b40e22d6fa632bfd9894af009c6be7d49",
		"0ddc36c651c52919a018d12bde2afee8934f9949b981c5db1d9b80070a713d15"},
	{1, 1,
		"bbcb55194a0c0c8a8c1ac178c8d72038fa5482e1d5b2ea6e64225b40809d5483",
		"2cb1e1a511dd6d9cfa3cb15d7eeff9fd410f7c846e485231655ef83a09c2bcf0",
		"0f110074035be430f4550a8bc60b3ba3d87815b22fa6dc63968b5f215441d1ce"},
	{2, 0,
		"d894cd14f90a0f849d6d5eed474c97ca9c5d3ed7a60f8da103be2c52857c235e",
		"8bdc617dfc65e05673546be294275f836b3b178fd65285a9ceba6cb48146f9e6",
		"ad0631a21e4b6bd2b38669a216ec5c39f78a2b6dcca4b6a9ff253aa465d2bb75"},
	{2, 1,
		"71d6975a03c167784b2e0c292771ad0e4d095073906259f2256ba1d7c0c7a035",
		"11c295c1e61295fe0ea597d5405d03d9da1740d14784dcd69761f8397af48738",
		"f65e8dce4fd79ce5acd5060c8ef96aeebeba4cddd8f171d3b278acfd100f6db3"},
}

// TestRunDayDeterministic runs days 0 and 1 at GOMAXPROCS 1, 2 and 4 and
// checks every view and the MRT bytes made of them against the pinned
// digests. Day 0 is digested only after day 1 has run, so a view that
// aliased a worker's reused scratch would read day 1's routes.
func TestRunDayDeterministic(t *testing.T) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		cfg := TinyConfig()
		cfg.Seed = seed
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			sim := New(topo, cfg)
			days := []*DayResult{sim.RunDay(0), sim.RunDay(1)}
			runtime.GOMAXPROCS(prev)
			for _, want := range pinnedDays {
				if want.seed != seed {
					continue
				}
				day := days[want.day]
				rib, updates := mrtDigests(t, sim, day)
				for _, c := range []struct{ name, got, want string }{
					{"views", viewDigest(day.Views), want.views},
					{"rib", rib, want.rib},
					{"updates", updates, want.updates},
				} {
					if c.got != c.want {
						t.Errorf("seed %d day %d GOMAXPROCS %d: %s digest %s, want %s", seed, want.day, procs, c.name, c.got, c.want)
					}
				}
			}
		}
	}
}

// Allocation ceilings per view for a TinyConfig day at GOMAXPROCS 2, the
// measured 302 B and 2.06 objects (a view's path and canonical
// communities) plus 25 %. When each transfer allocated its route and
// community slice on the heap and each origin draw a fresh rand source,
// the same day cost 3 747 B and 26.74 objects per view.
const (
	maxDayBytesPerView   = 378
	maxDayObjectsPerView = 2.6
)

// TestRunDayAllocBudget bounds what one simulated day allocates per view:
// a view's own path and community copies, and propagation's scratch
// amortized over a worker's prefixes.
func TestRunDayAllocBudget(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation budget: needs a run without -race and -short")
	}
	// Each worker's scratch is amortized over its prefixes, so the
	// figure depends on the worker count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, sim := tinySim(t)
	sim.RunDay(0) // warm what is built once per simulator
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	day := sim.RunDay(0)
	runtime.ReadMemStats(&m1)
	n := float64(len(day.Views))
	perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	perObj := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%d views: %.0f B and %.2f objects per view", len(day.Views), perByte, perObj)
	if perByte > maxDayBytesPerView {
		t.Errorf("%.0f B allocated per view, ceiling %d", perByte, maxDayBytesPerView)
	}
	if perObj > maxDayObjectsPerView {
		t.Errorf("%.2f objects allocated per view, ceiling %.2f", perObj, maxDayObjectsPerView)
	}
}

// TestKeyRandMatchesFreshSource checks that a re-seeded generator, part
// drained by an earlier draw site, yields the stream a fresh source of
// the same seed would.
func TestKeyRandMatchesFreshSource(t *testing.T) {
	r := rand.New(rand.NewSource(0))
	for key := uint64(0); key < 50; key++ {
		got := keyRand(r, 7, key<<16|key, saltActionPick)
		want := rand.New(rand.NewSource(int64(mix(7^(key<<16|key)*0x9e3779b97f4a7c15, saltActionPick))))
		for i := 0; i < int(key%7)+3; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("key %d draw %d: Float64 %v, want %v", key, i, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("key %d draw %d: Intn %d, want %d", key, i, g, w)
			}
		}
	}
}
