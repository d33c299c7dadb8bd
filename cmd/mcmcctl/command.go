package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/pkg/client"
)

// command is one node of the CLI tree. Leaves carry a run function;
// interior nodes only route. The same tree drives dispatch, -h help
// and the autogenerated command reference (cmdref), so the three can
// never disagree.
type command struct {
	name  string // single word, e.g. "submit"
	args  string // positional-argument synopsis, e.g. "<job-id>"
	short string // one-line summary
	long  string // optional extended help (defaults to short)
	flags func(a *app, fs *flag.FlagSet)
	run   func(a *app, fs *flag.FlagSet, args []string) error
	sub   []*command
}

// app carries the global options and output streams every command
// shares.
type app struct {
	host    string
	timeout time.Duration
	jsonOut bool

	out  io.Writer
	errw io.Writer
}

const defaultHost = "http://127.0.0.1:8080"

// newApp builds the shared state; getenv injects the environment so
// cmdref generation (and tests) can run hermetically.
func newApp(getenv func(string) string) *app {
	a := &app{host: defaultHost, timeout: 30 * time.Second, out: os.Stdout, errw: os.Stderr}
	if h := getenv("MCMCD_HOST"); h != "" {
		a.host = h
	}
	return a
}

// globalFlags registers the flags every command accepts. Each default
// is the app's current value, so a global flag parsed at an interior
// node (mcmcctl -json job get …) survives re-registration at the leaf.
func (a *app) globalFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.host, "host", a.host, "daemon base URL (env MCMCD_HOST)")
	fs.DurationVar(&a.timeout, "timeout", a.timeout, "request timeout for unary calls (streaming commands ignore it)")
	fs.BoolVar(&a.jsonOut, "json", a.jsonOut, "emit raw JSON instead of tables")
}

// client builds the API client for the configured host. The stream
// retry budget (~60s) is sized to ride out a daemon restart: the
// library default of ~1.25s gives up long before a restarted daemon
// finishes recovering its spool, which would make the reconnect
// promise in `job events`/`job submit -wait` a dead letter.
func (a *app) client() (*client.Client, error) {
	return client.New(a.host, client.WithRetry(120, 500*time.Millisecond))
}

// unaryCtx bounds a non-streaming request by the -timeout flag.
func (a *app) unaryCtx() (context.Context, context.CancelFunc) {
	if a.timeout > 0 {
		return context.WithTimeout(context.Background(), a.timeout)
	}
	return context.WithCancel(context.Background())
}

// printJSON writes v as indented JSON — the -json output mode.
func (a *app) printJSON(v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(a.out, string(blob))
	return nil
}

// usageError distinguishes "you called it wrong" (usage printed,
// exit 2) from operational failures (exit 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// dispatch routes one argument vector through the tree rooted at c.
// path is the command chain so far ("mcmcctl job", say).
func (c *command) dispatch(a *app, path string, args []string) error {
	// Global flags may precede the subcommand (mcmcctl -host … job list):
	// interior nodes peel them off before routing. Parsing stops at the
	// first non-flag argument, which is the subcommand name.
	if c.run == nil && len(args) > 0 && strings.HasPrefix(args[0], "-") {
		fs := c.flagSet(a, path)
		if err := fs.Parse(args); err != nil {
			if err == flag.ErrHelp {
				return nil
			}
			return &usageError{msg: err.Error()}
		}
		args = fs.Args()
	}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		if args[0] == "help" {
			c.printHelp(a, path)
			return nil
		}
		for _, s := range c.sub {
			if s.name == args[0] {
				return s.dispatch(a, path+" "+s.name, args[1:])
			}
		}
		if c.run == nil {
			c.printHelp(a, path)
			return usagef("unknown command %q (see %q above)", args[0], path)
		}
	}
	if c.run == nil {
		c.printHelp(a, path)
		return nil
	}
	fs := c.flagSet(a, path)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return &usageError{msg: err.Error()}
	}
	return c.run(a, fs, fs.Args())
}

// flagSet builds the command's full flag set: local flags plus the
// inherited globals, with -h printing the same help cmdref documents.
func (c *command) flagSet(a *app, path string) *flag.FlagSet {
	fs := flag.NewFlagSet(path, flag.ContinueOnError)
	fs.SetOutput(a.errw)
	if c.flags != nil {
		c.flags(a, fs)
	}
	a.globalFlags(fs)
	fs.Usage = func() { c.printHelp(a, path) }
	return fs
}

// synopsis renders the one-line invocation form.
func (c *command) synopsis(path string) string {
	s := path
	if len(c.sub) > 0 {
		s += " <command>"
	}
	if c.args != "" {
		s += " " + c.args
	}
	return s + " [flags]"
}

func (c *command) printHelp(a *app, path string) {
	w := a.errw
	fmt.Fprintf(w, "%s\n\n", c.short)
	if c.long != "" {
		fmt.Fprintf(w, "%s\n\n", strings.TrimSpace(c.long))
	}
	fmt.Fprintf(w, "Usage:\n  %s\n", c.synopsis(path))
	if len(c.sub) > 0 {
		fmt.Fprintf(w, "\nCommands:\n")
		for _, s := range c.sub {
			fmt.Fprintf(w, "  %-10s %s\n", s.name, s.short)
		}
	}
	if c.flags != nil {
		fmt.Fprintf(w, "\nFlags:\n%s", flagDefaults(func(fs *flag.FlagSet) { c.flags(a, fs) }))
	}
	fmt.Fprintf(w, "\nGlobal flags:\n%s", flagDefaults(a.globalFlags))
}

// flagDefaults renders a registration function's flags the way
// flag.PrintDefaults would (deterministically sorted).
func flagDefaults(register func(*flag.FlagSet)) string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	register(fs)
	fs.PrintDefaults()
	return buf.String()
}

// --- cmdref generation -------------------------------------------------

// cmdrefHeader marks every generated page; cmdref-check greps for it.
const cmdrefHeader = "<!-- This file is autogenerated via `mcmcctl cmdref`; do not edit manually. -->"

// cmdrefPages renders the full command reference: one markdown page
// per command, keyed by file name (the command path joined by
// underscores). The output is deterministic — the CI gate regenerates
// and diffs it.
func cmdrefPages(root *command, a *app) map[string]string {
	pages := make(map[string]string)
	var walk func(c *command, path []string, parent *command)
	walk = func(c *command, path []string, parent *command) {
		pages[strings.Join(path, "_")+".md"] = cmdrefPage(c, path, parent, a)
		for _, s := range c.sub {
			walk(s, append(append([]string(nil), path...), s.name), c)
		}
	}
	walk(root, []string{root.name}, nil)
	return pages
}

func cmdrefPage(c *command, path []string, parent *command, a *app) string {
	var b strings.Builder
	full := strings.Join(path, " ")
	fmt.Fprintf(&b, "%s\n\n# %s\n\n%s\n\n", cmdrefHeader, full, c.short)
	fmt.Fprintf(&b, "## Synopsis\n\n")
	if c.long != "" {
		fmt.Fprintf(&b, "%s\n\n", strings.TrimSpace(c.long))
	}
	fmt.Fprintf(&b, "```\n%s\n```\n\n", c.synopsis(full))
	if c.flags != nil {
		fmt.Fprintf(&b, "## Options\n\n```\n%s```\n\n",
			flagDefaults(func(fs *flag.FlagSet) { c.flags(a, fs) }))
	}
	fmt.Fprintf(&b, "## Options inherited from parent commands\n\n```\n%s```\n\n",
		flagDefaults(a.globalFlags))
	fmt.Fprintf(&b, "## SEE ALSO\n\n")
	if parent != nil {
		fmt.Fprintf(&b, "* [%s](%s.md) - %s\n",
			strings.Join(path[:len(path)-1], " "), strings.Join(path[:len(path)-1], "_"), parent.short)
	}
	for _, s := range c.sub {
		fmt.Fprintf(&b, "* [%s %s](%s_%s.md) - %s\n", full, s.name, strings.Join(path, "_"), s.name, s.short)
	}
	return b.String()
}

// writeCmdref materialises the reference under dir, pruning stale
// pages so renames cannot leave orphans behind.
func writeCmdref(root *command, a *app, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pages := cmdrefPages(root, a)
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(dir+"/"+name, []byte(pages[name]), 0o644); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".md") {
			continue
		}
		if _, ok := pages[e.Name()]; !ok {
			blob, err := os.ReadFile(dir + "/" + e.Name())
			if err == nil && strings.HasPrefix(string(blob), cmdrefHeader) {
				os.Remove(dir + "/" + e.Name())
			}
		}
	}
	return nil
}
