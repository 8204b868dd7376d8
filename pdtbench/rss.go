package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// maxRSSFlag runs the benchmark binary as a small helper that starts one
// command and prints that command's peak RSS. A process started straight
// from the benchmark would report the benchmark's own high-water mark:
// on Linux, exec records the RSS peak of the address space it replaces,
// and Go starts children on the parent's address space (CLONE_VM) up to
// exec. Started from the helper, that inherited floor is only the
// helper's few MiB.
const maxRSSFlag = "-maxrss"

// maxRSS returns the peak RSS in KiB of argv, run to completion.
func maxRSS(argv []string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(self, append([]string{maxRSSFlag}, argv...)...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w: %.300s", argv[0], err, errb.Bytes())
	}
	return strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
}

// maxRSSHelper is the helper side: run argv, print its ru_maxrss (KiB).
func maxRSSHelper(argv []string) int {
	cmd := exec.Command(argv[0], argv[1:]...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "%v: %s\n", err, errb.Bytes())
		return 1
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Fprintln(os.Stderr, "no rusage on this platform")
		return 1
	}
	fmt.Println(ru.Maxrss)
	return 0
}
