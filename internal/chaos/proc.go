package chaos

// Shared child-process crash/recovery helpers for this suite and the
// soak world (internal/soak): start a daemon as a real OS process and
// SIGKILL it mid-write.

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// Proc is a child process hosting a daemon under crash testing.
type Proc struct {
	cmd *exec.Cmd
}

// StartProc launches bin with args and the parent environment extended
// by env ("KEY=value" entries). Stdout/stderr are inherited so the
// child's logs interleave with the harness's.
func StartProc(bin string, args []string, env []string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", bin, err)
	}
	return &Proc{cmd: cmd}, nil
}

// Pid returns the child's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Kill delivers SIGKILL — no shutdown hooks, no flush, the closest a
// test gets to pulling the power cord — and reaps the child, verifying
// it actually died by signal rather than exiting cleanly first.
func (p *Proc) Kill() error {
	if err := p.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("chaos: kill pid %d: %w", p.Pid(), err)
	}
	err := p.cmd.Wait()
	if err == nil {
		return fmt.Errorf("chaos: pid %d exited cleanly before SIGKILL landed", p.Pid())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		return fmt.Errorf("chaos: wait pid %d: %w", p.Pid(), err)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		return fmt.Errorf("chaos: pid %d died with %v, want SIGKILL", p.Pid(), ee)
	}
	return nil
}

// Stop terminates the child without asserting how it dies — cleanup for
// harness teardown paths where the child may already be gone.
func (p *Proc) Stop() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}
