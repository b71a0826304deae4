package bench

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"unsafe"

	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// The host this benchmark runs on is shared: co-tenant load slows
// execution and memory access by up to half, in bursts of a second and
// in regimes lasting minutes, and it never speeds anything up. Both an
// op's time and the time of a fixed kernel move with it. So the
// benchmark runs the kernel between ops and reports every time scaled
// to a reference host, one on which the kernel takes refKernelNs (about
// its median on the 2-vCPU host of the README's ledger):
//
//	reference time = measured time × refKernelNs ÷ kernel time
//
// An op is scaled by the mean of the kernel runs just before and just
// after it, set-up by the run's median kernel time. In two sets of ten
// 20 s runs per workload, the spread (IQR ÷ median) of events_per_s was
// 2-6% scaled and 4-18% as measured (README.md, First ledger). The kernel
// is pure Go over memory outside the Go heap: the program cannot speed
// it up or slow it down, and it neither allocates nor adds to the heap
// that heap_mb reads and the GC paces itself by.
const refKernelNs = 13e6

// Kernel sizes, in 8-byte words. The four parts exercise what the
// replays do: comparisons and branches (sort), hashing with probes
// (table), a priority queue (heap) and dependent reads and writes
// scattered over more memory than the L2 cache holds (scatter).
const (
	kernelSortWords  = 1 << 15
	kernelTableBits  = 17
	kernelTableWords = 1 << kernelTableBits
	kernelHeapWords  = 1 << 15
	kernelMemWords   = 1 << 20
	kernelMemSteps   = 1 << 18
	kernelWords      = 2*kernelSortWords + kernelTableWords + kernelHeapWords + kernelMemWords
)

// hostKernel is the calibration kernel's memory: anonymous pages
// mapped outside the Go heap.
type hostKernel struct {
	src, buf, table, heap, mem []uint64
	sink                       uint64
}

var (
	kernelOnce sync.Once
	kernel     *hostKernel
	kernelErr  error
)

// sharedKernel maps and fills the kernel's memory on first use. Every
// run of the process shares it; it is never unmapped.
func sharedKernel() (*hostKernel, error) {
	kernelOnce.Do(func() {
		b, err := syscall.Mmap(-1, 0, kernelWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			kernelErr = fmt.Errorf("map calibration kernel memory: %w", err)
			return
		}
		w := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), kernelWords)
		k := &hostKernel{}
		k.src, w = w[:kernelSortWords], w[kernelSortWords:]
		k.buf, w = w[:kernelSortWords], w[kernelSortWords:]
		k.table, w = w[:kernelTableWords], w[kernelTableWords:]
		k.heap, k.mem = w[:kernelHeapWords], w[kernelHeapWords:]
		rng := xrand.New(0xCA11B8A7E)
		for i := range k.src {
			k.src[i] = rng.Uint64()
		}
		for i := range k.mem {
			k.mem[i] = uint64(i)
		}
		kernel = k
	})
	return kernel, kernelErr
}

// run executes the kernel once.
func (k *hostKernel) run() {
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	sum := k.buf[len(k.buf)/2]

	clear(k.table)
	mask := uint64(len(k.table) - 1)
	for _, v := range k.src {
		key := v | 1
		i := (v * 0x9E3779B97F4A7C15) >> (64 - kernelTableBits)
		for k.table[i] != 0 && k.table[i] != key {
			i = (i + 1) & mask
		}
		k.table[i] = key
	}

	h := k.heap[:0]
	for n, v := range k.src {
		h = append(h, v)
		for i := len(h) - 1; i > 0 && h[(i-1)/2] > h[i]; i = (i - 1) / 2 {
			h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
		}
		if n%2 == 1 {
			sum += h[0]
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			for i := 0; ; {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] < h[c] {
					c++
				}
				if h[i] <= h[c] {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
	}

	x := uint64(0x2545F4914F6CDD1D)
	mmask := uint64(len(k.mem) - 1)
	for range kernelMemSteps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.mem[x&mmask] += sum
		sum += k.mem[(x>>24)&mmask]
	}
	k.sink += sum
}

// hostSpeed runs the kernel between a run's ops and scales their times
// to the reference host.
type hostSpeed struct {
	k     *hostKernel
	times []float64 // every kernel time, ns, in order
}

// newHostSpeed returns a gauge that has run the kernel once, so the
// first op already has a reading before it.
func newHostSpeed() (*hostSpeed, error) {
	k, err := sharedKernel()
	if err != nil {
		return nil, err
	}
	hs := &hostSpeed{k: k}
	hs.mark()
	return hs, nil
}

// mark runs the kernel once and records its time. The garbage
// collector is off while it runs, after any cycle already under way has
// finished, so collecting the program's garbage never slows the kernel.
func (hs *hostSpeed) mark() {
	gc := debug.SetGCPercent(-1)
	t0 := nanotime()
	hs.k.run()
	hs.times = append(hs.times, float64(nanotime()-t0))
	debug.SetGCPercent(gc)
}

// scaleLast scales a time taken between the two latest marks.
func (hs *hostSpeed) scaleLast(dt float64) float64 {
	n := len(hs.times)
	return dt * refKernelNs / ((hs.times[n-2] + hs.times[n-1]) / 2)
}

// kernelNs is the run's median kernel time.
func (hs *hostSpeed) kernelNs() float64 { return stats.Median(hs.times) }

// scaleRun scales a time taken at any point of the run.
func (hs *hostSpeed) scaleRun(dt float64) float64 { return dt * refKernelNs / hs.kernelNs() }
