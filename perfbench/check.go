package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"corona/internal/core"
)

// reference.json holds what BENCHMARK.json's fixed schema has no room for:
// the default and held-out workload seeds and, per workload, the digest of
// the default seed's cells.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	DefaultSeed uint64            `json:"default_seed"`
	HeldOutSeed uint64            `json:"held_out_seed"`
	Digests     map[string]string `json:"digests"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// sortCells orders cells by matrix index.
func sortCells(cells []core.CellResult) {
	sort.Slice(cells, func(a, b int) bool { return cells[a].Index < cells[b].Index })
}

// digest hashes index-sorted cells as their NDJSON encoding, the bytes a
// results stream carries.
func digest(cells []core.CellResult) string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range cells {
		enc.Encode(c) // a CellResult of scalars always encodes
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// mismatches counts the cells of got (index-sorted) that differ from want or
// are missing, plus any extras. CellResult holds only scalars, so == is a
// field-by-field comparison that agrees with comparing encodings.
func mismatches(got, want []core.CellResult) int {
	bad := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad++
		}
	}
	if len(got) > len(want) {
		bad += len(got) - len(want)
	}
	return bad
}

// tally counts what a run attempted and what failed: every cell delivered
// or expected on every path, plus each digest comparison.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) cells(path string, got, want []core.CellResult) {
	t.attempted += max(len(got), len(want))
	if bad := mismatches(got, want); bad > 0 {
		t.failed += bad
		t.notes = append(t.notes, fmt.Sprintf("%s: %d of %d cells differ from the reference", path, bad, len(want)))
	}
}

func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	t.failed += n
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// maxRSSMiB is the process's resident high-water mark.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile is the q-th quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// campaignWindow is how many consecutive campaigns one window of a run
// holds: at least 10 of them lie beyond a window's p90.
const campaignWindow = 100

// windows is how many windows a run of n campaigns is split into:
// n/campaignWindow, or 1 when that leaves fewer than two.
func windows(n int) int {
	if n/campaignWindow < 2 {
		return 1
	}
	return n / campaignWindow
}

// windowedQuantile splits xs, in the order the campaigns finished, into
// windows(len(xs)) near-equal runs of consecutive samples, takes each
// window's q-quantile, and returns the lower quartile of those: the figure
// the program holds in the better quarter of its windows. Co-tenants on a
// shared host (hypervisor steal) only ever add time, in stretches of tens
// of seconds; a quantile over the whole run moves with them, this one not
// as long as a quarter of the windows are clear of them. With one window
// it is the plain quantile. xs is left as it was.
func windowedQuantile(xs []float64, q float64) float64 {
	n := windows(len(xs))
	per := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		per = append(per, quantile(append([]float64(nil), xs[w*len(xs)/n:(w+1)*len(xs)/n]...), q))
	}
	return quantile(per, 0.25)
}

// windowedRate is the rate counterpart of windowedQuantile: over the same
// windows it divides the summed amounts by the summed host seconds the
// campaigns account for, and returns the upper quartile of the windows'
// rates. With one window it is the whole run's rate.
func windowedRate(amounts, secs []float64) float64 {
	n := windows(len(amounts))
	per := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := w*len(amounts)/n, (w+1)*len(amounts)/n
		per = append(per, sum(amounts[lo:hi])/sum(secs[lo:hi]))
	}
	return quantile(per, 0.75)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
