package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every result: a number without the machine
// it was taken on is not comparable with anything.
type environment struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Kernel       string  `json:"kernel"`
	LedgerFS     string  `json:"ledger_fs"`
	DeviceSyncUS float64 `json:"ledger.device_sync_us"`
}

// minDeviceSyncUS is the floor under which the ledger directory is not
// on a device that makes fsync wait (tmpfs syncs in about a
// microsecond): the pay workloads would then not be measuring the fsync
// wall and are refused.
const minDeviceSyncUS = 5.0

func readEnvironment(ledgerDir string, syncRecord []byte) (environment, error) {
	env := environment{
		Commit:     "unknown", // an exported checkout is not a git repository
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		LedgerFS:   fsType(ledgerDir),
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	sync, err := deviceSync(ledgerDir, syncRecord, 400)
	if err != nil {
		return env, err
	}
	env.DeviceSyncUS = sync
	return env, nil
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// deviceSync is the floor under every durable commit: the median time,
// in µs, of one write of record plus one Sync on a plain file in dir —
// the same bytes the WAL writes, with none of its code.
func deviceSync(dir string, record []byte, n int) (float64, error) {
	probe, err := openSyncProbe(dir)
	if err != nil {
		return 0, err
	}
	defer probe.close()
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := probe.writeSync(record); err != nil {
			return 0, fmt.Errorf("device sync probe: %w", err)
		}
		samples = append(samples, micros(time.Since(start)))
	}
	sort.Float64s(samples)
	return quantile(samples, 0.5, 0)
}

// syncProbe is a plain append-only file in the ledger's directory: the
// bottom rung of the pay ladder and the device floor in the environment
// record.
type syncProbe struct{ f *os.File }

func openSyncProbe(dir string) (*syncProbe, error) {
	f, err := os.OpenFile(filepath.Join(dir, "device-sync.probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("device sync probe: %w", err)
	}
	return &syncProbe{f}, nil
}

func (p *syncProbe) writeSync(record []byte) error {
	if _, err := p.f.Write(record); err != nil {
		return err
	}
	return p.f.Sync()
}

func (p *syncProbe) close() {
	_ = p.f.Close()
	_ = os.Remove(p.f.Name())
}
