package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint describes the host a result was measured on.  Results are
// comparable only between runs with the same fingerprint.
func fingerprint(sp spec, walDir string) string {
	sync := "none (in process, no WAL)"
	if sp.served {
		sync = sp.sync.String()
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s walfs=%s sync=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(walDir), sync)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x01021997:
		return "9p"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
