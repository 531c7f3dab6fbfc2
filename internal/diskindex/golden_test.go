package diskindex

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/ladder"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ladder_golden.txt from this run")

const goldenPath = "testdata/ladder_golden.txt"

// queryDigest hashes one query's outcome: neighbor IDs, the bits of every
// distance, and the logical counters in the given order.
func queryDigest(nbrs []ann.Neighbor, counters ...int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, nb := range nbrs {
		binary.LittleEndian.PutUint32(b[:4], nb.ID)
		h.Write(b[:4])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(nb.Dist))
		h.Write(b[:])
	}
	for _, c := range counters {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func memDigest(res ann.Result, st Stats) string {
	return queryDigest(res.Neighbors, st.Radii, st.Probes, st.NonEmptyProbes,
		st.EntriesScanned, st.Checked, st.Duplicates, st.IOsAtInf)
}

func diskDigest(res ann.Result, st Stats) string {
	return queryDigest(res.Neighbors, st.Radii, st.Probes, st.NonEmptyProbes,
		st.TableIOs, st.BucketIOs, st.EntriesScanned, st.FPRejected, st.Duplicates,
		st.Checked, st.FaultedReads, st.SkippedChains, st.Partial)
}

// TestLadderGoldenDigest pins what the three wall-clock E2LSH searchers
// return — neighbors, distance bits and every logical counter, per query —
// to digests recorded before they shared one ladder driver. The
// wave-vs-reference and disk-vs-mem parity tests compare searchers with each
// other, so they cannot see a bug that lives in the code all three share;
// this test can.
func TestLadderGoldenDigest(t *testing.T) {
	const k = 5
	ctx := context.Background()
	got := map[string]string{}
	d, disk, mem := testSetup(t, 2000, 1000, DefaultOptions())
	// One hash partition is the unpartitioned ladder, digest for digest.
	disk.SetPartitions(1)
	budgets := []struct {
		name string
		s    int
	}{{"generous", 1000 * disk.params.L}, {"truncating", 2 * disk.params.L}}
	// One searcher of each kind serves every knob combination: a knob
	// that left residue in a searcher would show up as a wrong digest.
	// The wave searcher reads through an engine: in line it walks its
	// buckets as the reference does, and its column would copy ref/.
	ms, ref, ws := mem.NewSearcher(), disk.NewSearcher(), engineAttached(t, disk, 4, 0, 0).NewWaveSearcher()
	for _, b := range budgets {
		for _, mp := range []int{0, 2} {
			kn := ladder.Knobs{K: k, Budget: b.s, MultiProbe: mp}
			var memD, refD, waveD []string
			for _, q := range d.Queries {
				mres, mst, err := ms.Run(ctx, q, kn, nil)
				if err != nil {
					t.Fatal(err)
				}
				memD = append(memD, memDigest(mres, mst))
				rres, rst, err := ref.Run(ctx, q, kn, nil)
				if err != nil {
					t.Fatal(err)
				}
				refD = append(refD, diskDigest(rres, rst))
				wres, wst, err := ws.Run(ctx, q, kn, nil)
				if err != nil {
					t.Fatal(err)
				}
				waveD = append(waveD, diskDigest(wres, wst))
			}
			// Every index shares one projection set across radii; the key
			// still says so, as the digests were recorded under it.
			key := fmt.Sprintf("mp=%d/budget=%s/share=true", mp, b.name)
			got["mem/"+key] = strings.Join(memD, " ")
			got["ref/"+key] = strings.Join(refD, " ")
			got["wave/"+key] = strings.Join(waveD, " ")
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&sb, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, want, _ := strings.Cut(sc.Text(), " ")
		seen++
		have, ok := got[key]
		if !ok {
			t.Errorf("%s: in the golden file but not produced by this run", key)
			continue
		}
		if have == want {
			continue
		}
		hs, wsum := strings.Fields(have), strings.Fields(want)
		for qi := range wsum {
			if qi >= len(hs) || hs[qi] != wsum[qi] {
				t.Errorf("%s: query %d digest differs from the recorded one (of %d queries)", key, qi, len(wsum))
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden file has %d configurations, this run produced %d", seen, len(got))
	}
}
