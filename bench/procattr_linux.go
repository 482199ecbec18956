package main

import "syscall"

// daemonProcAttr puts the daemon in a process group of its own, so that
// one signal reaches it and anything it might start, and has the kernel
// kill it if the benchmark dies without running its clean-up.
func daemonProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

func signalGroup(pid int, sig syscall.Signal) error { return syscall.Kill(-pid, sig) }

// quietDisk flushes what earlier runs left in the page cache and the
// filesystem journal (hundreds of MB of deleted blobs after sweep-rows),
// so that a run's first boots and fsyncs do not queue behind them.
func quietDisk() { syscall.Sync() }
