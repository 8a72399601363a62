package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t in nanosleep. Go's timers can fire up to a
// millisecond late when the process is idle, because the network poller
// waits in whole milliseconds; that error would be added to every storm
// latency, which is timed from the due time.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
