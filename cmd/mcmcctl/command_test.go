package main

import (
	"errors"
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/pkg/api"
)

func hermeticApp() *app {
	a := newApp(func(string) string { return "" })
	var sink strings.Builder
	a.out, a.errw = &sink, &sink
	return a
}

func TestCmdrefPagesDeterministic(t *testing.T) {
	a := hermeticApp()
	p1 := cmdrefPages(rootCommand(), a)
	p2 := cmdrefPages(rootCommand(), a)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("cmdref generation is not deterministic")
	}
	for _, name := range []string{"mcmcctl.md", "mcmcctl_job_submit.md", "mcmcctl_diag.md", "mcmcctl_spool_ls.md"} {
		page, ok := p1[name]
		if !ok {
			t.Fatalf("missing page %s (have %d pages)", name, len(p1))
		}
		if !strings.HasPrefix(page, cmdrefHeader) {
			t.Errorf("%s lacks the autogenerated header", name)
		}
	}
	// Pages must not leak the generator's environment: the host default
	// is the hermetic one.
	if !strings.Contains(p1["mcmcctl_job_list.md"], defaultHost) {
		t.Error("inherited -host default missing from the options section")
	}
}

func TestDispatchErrors(t *testing.T) {
	var ue *usageError
	if err := rootCommand().dispatch(hermeticApp(), "mcmcctl", []string{"bogus"}); !errors.As(err, &ue) {
		t.Errorf("unknown command: %v", err)
	}
	if err := rootCommand().dispatch(hermeticApp(), "mcmcctl", []string{"job", "get"}); !errors.As(err, &ue) {
		t.Errorf("missing argument: %v", err)
	}
	// Interior nodes and help print usage without failing.
	if err := rootCommand().dispatch(hermeticApp(), "mcmcctl", []string{"job"}); err != nil {
		t.Errorf("interior node: %v", err)
	}
	if err := rootCommand().dispatch(hermeticApp(), "mcmcctl", []string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
	// Global flags may precede the subcommand.
	if err := rootCommand().dispatch(hermeticApp(), "mcmcctl", []string{"-json", "job"}); err != nil {
		t.Errorf("leading global flag: %v", err)
	}
	if err := rootCommand().dispatch(hermeticApp(), "mcmcctl", []string{"-json", "bogus"}); !errors.As(err, &ue) {
		t.Errorf("leading flag + unknown command: %v", err)
	}
}

// Global flags placed before the subcommand must reach the leaf: the
// leaf re-registers them, and must not reset them to their defaults.
func TestLeadingGlobalFlagsReachLeaf(t *testing.T) {
	root := rootCommand()
	var leaf *command
	for _, c := range root.sub {
		if c.name == "job" {
			for _, s := range c.sub {
				if s.name == "list" {
					leaf = s
				}
			}
		}
	}
	if leaf == nil {
		t.Fatal("no job list command")
	}
	var jsonOut bool
	var timeout time.Duration
	leaf.run = func(a *app, _ *flag.FlagSet, _ []string) error {
		jsonOut, timeout = a.jsonOut, a.timeout
		return nil
	}
	if err := root.dispatch(hermeticApp(), "mcmcctl", []string{"-json", "-timeout", "5s", "job", "list"}); err != nil {
		t.Fatal(err)
	}
	if !jsonOut || timeout != 5*time.Second {
		t.Fatalf("leaf saw -json=%v -timeout=%v, want true and 5s", jsonOut, timeout)
	}
}

func TestMcmcdHostEnv(t *testing.T) {
	a := newApp(func(k string) string {
		if k == "MCMCD_HOST" {
			return "http://example:9"
		}
		return ""
	})
	if a.host != "http://example:9" {
		t.Errorf("host %q", a.host)
	}
	if newApp(func(string) string { return "" }).host != defaultHost {
		t.Error("default host not applied")
	}
}

func TestFmtFloat(t *testing.T) {
	if got := fmtFloat(api.Float(math.NaN())); got != "-" {
		t.Errorf("NaN rendered %q", got)
	}
	if got := fmtFloat(api.Float(0.25)); got != "0.25" {
		t.Errorf("0.25 rendered %q", got)
	}
}
