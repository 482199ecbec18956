//go:build !linux

package main

import (
	"os"
	"syscall"
)

// The benchmark reads /proc and only measures on Linux; this keeps the
// package compiling elsewhere, without the process group.
func daemonProcAttr() *syscall.SysProcAttr { return nil }

func signalGroup(pid int, sig syscall.Signal) error {
	p, err := os.FindProcess(pid)
	if err != nil {
		return err
	}
	return p.Signal(sig)
}

func quietDisk() {}
