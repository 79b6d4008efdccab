package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speed of a shared virtual machine drifts: the same run can take 30%
// longer an hour later, CPU time included, with no change to the code.
// Every timed end-to-end metric is therefore scaled to a reference host
// speed. A fixed piece of work that does not touch the program, the
// calibration, is timed in short bursts spread over the run: after each
// set-up and between the slices of the measured window.
// A time t is reported as t × calibNominal / (median rep time). A program
// change does not move the calibration, so it shows in full, while a host
// that runs everything 30% slower leaves the scaled figures where they
// were. The unscaled figures are printed above the result line.

// calibNominal is the time of one calibration rep on the reference host
// (a 2-vCPU 2.0 GHz Xeon virtual machine), so scaled figures read about
// as raw ones did there.
const calibNominal = 16 * time.Millisecond

// calibReps is the rep count of one burst.
const calibReps = 10

// The working set has a cache-resident part about the size of the hot
// pages of a point read: a sorted key array searched like a tree, a
// buffer of varints decoded like rows, and a 16 KB page whose tail is
// shifted like an insert. A 64 MB part, larger than the caches, is read
// at random and copied 16 KB at a time, like a scan over a pool that
// does not hold the data.
const (
	calibKeys     = 128 << 10 // 1 MB of sorted uint64 keys
	calibRowBytes = 256 << 10
	calibPage     = 16 << 10
	calibBigBytes = 64 << 20
)

// calibration holds the calibration's working set and the times of every
// rep run so far. The working set is mapped outside the Go heap, so it
// changes neither the live heap nor the collector's pacing of the
// program, and a rep allocates nothing.
type calibration struct {
	mem   []byte
	keys  []uint64
	rows  []byte
	pages [][]byte // one per thread
	big   []uint64
	wall  []time.Duration
	cpu   []time.Duration
}

// newCalibration maps the working set for bursts of up to maxThreads
// threads.
func newCalibration(maxThreads int) (*calibration, error) {
	pagesAt := 8*calibKeys + calibRowBytes
	bigAt := pagesAt + maxThreads*calibPage
	mem, err := syscall.Mmap(-1, 0, bigAt+calibBigBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	c := &calibration{
		mem:  mem,
		keys: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibKeys),
		rows: mem[8*calibKeys : pagesAt],
		big:  unsafe.Slice((*uint64)(unsafe.Pointer(&mem[bigAt])), calibBigBytes/8),
	}
	for i := 0; i < maxThreads; i++ {
		c.pages = append(c.pages, mem[pagesAt+i*calibPage:pagesAt+(i+1)*calibPage])
	}
	for i := range c.keys {
		c.keys[i] = uint64(i) * 7
	}
	x := uint64(88172645463325252)
	for off := 0; off+binary.MaxVarintLen64 <= len(c.rows); {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		off += binary.PutUvarint(c.rows[off:], x>>(x%57))
	}
	for i := range c.big {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.big[i] = x
	}
	return c, nil
}

// close unmaps the working set; the recorded times stay.
func (c *calibration) close() {
	if c.mem == nil {
		return
	}
	syscall.Munmap(c.mem)
	c.mem, c.keys, c.rows, c.pages, c.big = nil, nil, nil, nil, nil
}

// rep is one unit of calibration work: binary searches over the keys,
// a pass of varint decoding over the rows, shifts of a page's tail, then
// dependent random reads and 16 KB copies over the big part. Only page is
// written, so threads with pages of their own can run reps at once. The
// result keeps the compiler from dropping the work.
func (c *calibration) rep(page []byte) uint64 {
	var acc uint64
	x := uint64(2463534242)
	for i := 0; i < 30000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % (7 * calibKeys)
		lo, hi := 0, len(c.keys)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if c.keys[m] < k {
				lo = m + 1
			} else {
				hi = m
			}
		}
		acc += uint64(lo)
	}
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < len(c.rows)-binary.MaxVarintLen64; {
			v, n := binary.Uvarint(c.rows[off:])
			if n <= 0 {
				break
			}
			acc += v
			off += n
		}
	}
	for i := 0; i < 400; i++ {
		at := (i * 1543) % (calibPage / 2)
		copy(page[at+16:], page[at:len(page)-16])
		acc += uint64(page[at])
	}
	mask := uint64(len(c.big) - 1)
	for i := 0; i < 30000; i++ {
		v := c.big[x&mask]
		x ^= v + uint64(i)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += v
	}
	for i := 0; i < 100; i++ {
		at := int(x%uint64(len(c.big)-calibPage/8)) &^ 1
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		copy(page, unsafe.Slice((*byte)(unsafe.Pointer(&c.big[at])), calibPage))
		acc += uint64(page[i])
	}
	return acc
}

// burst runs calibReps rounds of reps on threads OS threads at once and
// records each round's wall time and its threads' mean CPU time. A
// workload with two clients is calibrated on two threads, so a host that
// runs one CPU slower, or gives part of one to another process, shows as
// it does to the workload. The caller runs it while the program is idle, with threads
// at most the maxThreads the calibration was made for.
func (c *calibration) burst(threads int) {
	start := make([]chan struct{}, threads)
	done := make(chan time.Duration, threads)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := range start {
		start[i] = make(chan struct{})
		wg.Add(1)
		go func(start <-chan struct{}, page []byte) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var acc uint64
			for range start {
				u := threadCPU()
				acc += c.rep(page)
				done <- threadCPU() - u
			}
			page[0] = byte(acc)
		}(start[i], c.pages[i])
	}
	for r := 0; r < calibReps; r++ {
		t := time.Now()
		for _, ch := range start {
			ch <- struct{}{}
		}
		var cpu time.Duration
		for range start {
			cpu += <-done
		}
		c.wall = append(c.wall, time.Since(t))
		c.cpu = append(c.cpu, cpu/time.Duration(threads))
	}
	for _, ch := range start {
		close(ch)
	}
}

// wallScale and cpuScale take a wall-clock or a CPU time measured on this
// host to the reference host: calibNominal over the median rep time.
func (c *calibration) wallScale() float64 { return scaleOf(c.wall) }
func (c *calibration) cpuScale() float64  { return scaleOf(c.cpu) }

func scaleOf(reps []time.Duration) float64 {
	if len(reps) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	med := s[len(s)/2]
	if med <= 0 {
		return 1
	}
	return float64(calibNominal) / float64(med)
}

// threadCPU is the calling OS thread's CPU time, to the nanosecond.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
