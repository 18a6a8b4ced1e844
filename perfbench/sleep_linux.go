package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in nanosleep, which wakes
// within tens of microseconds. time.Sleep can overshoot by up to a
// millisecond on Linux, which would dominate the lookup latency the
// open-loop generator measures.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
