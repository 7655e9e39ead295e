package mccp_test

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mccp/internal/harness"
)

// TestCLI builds the command-line tools and drives them end to end: the
// two mccpcluster drills, the fault walkthrough, mccploadgen against a
// live mccpserver over loopback TCP, the shard-scaling sweep and one
// benchtables table. Each subtest holds one condition on what a binary
// prints.
func TestCLI(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/mccpcluster", "./cmd/mccpserver", "./cmd/mccploadgen", "./cmd/benchtables", "./examples/faults")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, name string, args ...string) string {
		out, err := exec.Command(filepath.Join(bin, name), args...).Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	// replays runs a binary twice and wants the same output both times
	// but for lines starting with skip (empty skips none).
	replays := func(t *testing.T, skip, name string, args ...string) string {
		keep := func(out string) string {
			var b strings.Builder
			for _, line := range strings.SplitAfter(out, "\n") {
				if skip == "" || !strings.HasPrefix(line, skip) {
					b.WriteString(line)
				}
			}
			return b.String()
		}
		a, b := keep(run(t, name, args...)), keep(run(t, name, args...))
		if a != b {
			t.Fatalf("%s %s does not replay:\n%s\n---\n%s", name, strings.Join(args, " "), a, b)
		}
		return a
	}

	// The two heal-controller drills replay byte for byte apart from the
	// wall-clock host: line, and the exit report's total: line counts the
	// bytes the open-loop arrivals delivered on the shards.
	for name, args := range map[string][]string{
		"fault-drill": {"-faults", "crashes=1,stalls=1", "-offered", "0.9", "-windows", "9"},
		"heal-drill":  {"-heal", "-restart-src", "icap", "-offered", "0.9", "-windows", "12"},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out := replays(t, "host:", "mccpcluster", args...)
			total := regexp.MustCompile(`(?m)^total:.*$`).FindString(out)
			if total == "" {
				t.Fatalf("no total: line in\n%s", out)
			}
			if regexp.MustCompile(`^total: .* 0 bytes`).MatchString(total) {
				t.Fatalf("exit report lost the shard-side byte counters: %s", total)
			}
		})
	}

	// The fault walkthrough prints a MoveReport: it replays byte for byte
	// and keeps its fail-over line.
	t.Run("faults-example", func(t *testing.T) {
		t.Parallel()
		out := replays(t, "", "faults")
		if !regexp.MustCompile(`(?m)^fail-over: re-homed`).MatchString(out) {
			t.Fatalf("no fail-over: re-homed line in\n%s", out)
		}
	})

	// mccploadgen against a real mccpserver prints its per-class table and
	// the per-connection arrival digests; the server exits cleanly on
	// SIGINT.
	t.Run("load-over-tcp", func(t *testing.T) {
		t.Parallel()
		srv := exec.Command(filepath.Join(bin, "mccpserver"), "-listen", "127.0.0.1:0", "-shards", "2")
		stderr, err := srv.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Process.Kill()
		// The server's log yields its address once it is listening and
		// the whole log once the server has closed its end.
		addrc, logc := make(chan string, 1), make(chan string, 1)
		go func() {
			listening := regexp.MustCompile(`listening on ([0-9.:]+): `)
			var log strings.Builder
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				log.WriteString(sc.Text() + "\n")
				if m := listening.FindStringSubmatch(sc.Text()); m != nil {
					select {
					case addrc <- m[1]:
					default:
					}
				}
			}
			close(addrc)
			logc <- log.String()
		}()
		var addr string
		select {
		case addr = <-addrc:
		case <-time.After(10 * time.Second):
			srv.Process.Kill()
		}
		if addr == "" {
			t.Fatalf("mccpserver never said where it listens:\n%s", <-logc)
		}
		out := run(t, "mccploadgen", "-connect", addr, "-sessions", "16", "-windows", "4")
		if err := srv.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		log := <-logc
		if err := srv.Wait(); err != nil {
			t.Fatalf("mccpserver on SIGINT: %v\n%s", err, log)
		}
		for _, want := range []string{`(?m)^class +off Mbps +del Mbps`, `(?m)^arrival digests per connection`} {
			if !regexp.MustCompile(want).MatchString(out) {
				t.Errorf("mccploadgen printed no line matching %s:\n%s", want, out)
			}
		}
	})

	// benchtables renders a registered experiment with one row per point
	// under its heading, and refuses a table name it does not know.
	t.Run("benchtables", func(t *testing.T) {
		t.Parallel()
		out := run(t, "benchtables", "-table", "qos")
		if !strings.HasPrefix(out, "== E12") {
			t.Fatalf("no == E12 heading:\n%s", out)
		}
		var points []harness.Point
		for _, exp := range harness.Experiments {
			if exp.ID == "E12" {
				points = exp.Points
			}
		}
		if len(points) == 0 {
			t.Fatal("E12 has no registered points")
		}
		for _, p := range points {
			if n := len(regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(p.Name)+` `).FindAllString(out, -1)); n != 1 {
				t.Errorf("%d rows for point %s, want 1:\n%s", n, p.Name, out)
			}
		}
		msg, err := exec.Command(filepath.Join(bin, "benchtables"), "-table", "nosuch").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), "unknown table") {
			t.Fatalf("benchtables -table nosuch: %v, want exit status 2 and an unknown table message:\n%s", err, msg)
		}
	})

	// The closed-loop shard sweep prints one row per shard count.
	t.Run("scaling", func(t *testing.T) {
		t.Parallel()
		out := run(t, "mccpcluster", "-scaling", "-packets", "64")
		if rows := regexp.MustCompile(`(?m)^[1248] `).FindAllString(out, -1); len(rows) != 4 {
			t.Fatalf("%d rows for 1, 2, 4 and 8 shards, want 4:\n%s", len(rows), out)
		}
	})
}
