package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// fsNames maps statfs magic numbers to the names mount(8) shows.
var fsNames = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0x65735546: "fuse",
	0xf2f52010: "f2fs",
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout without .git does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB is VmHWM of this process in MB, 0 where /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// printHeader writes the environment every number below it was taken in.
func printHeader(w io.Writer, cfg config, traced bool) {
	fs := fsType(cfg.stateDir)
	fmt.Fprintf(w, "# slate benchmark: workload=%s seed=%d window=%.1fs traced=%v\n", cfg.workload, cfg.seed, cfg.window.Seconds(), traced)
	fmt.Fprintf(w, "# commit=%s %s GOMAXPROCS=%d NumCPU=%d kernel=%s\n",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), kernelRelease())
	fmt.Fprintf(w, "# state-dir=%s fs=%s\n", cfg.stateDir, fs)
	if fs == "tmpfs" {
		fmt.Fprintf(w, "# NOTE: tmpfs makes fsync free; launch_single measures the CPU path here, not the disk\n")
	}
	fmt.Fprintf(w, "# load: closed loop, 1 client goroutine; simulated model error is stated as sim_err_pp in the traced run\n")
}
