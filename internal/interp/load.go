package interp

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"hpfnt/hpf"
	"hpfnt/internal/engine"
)

// Config gathers everything needed to run a program text: the
// execution backend, the wire, the processor count and the input
// parameters. It is the shared program-loading entry point of
// cmd/hpfrun, cmd/hpfmap and the corpus tests.
type Config struct {
	// Name labels the program unit (defaults to "main").
	Name string
	// NP is the processor count (defaults to 8).
	NP int
	// Engine is the execution backend, "" for the session default.
	Engine string
	// Transport is the spmd wire, "" for the session default.
	Transport string
	// Vienna selects the Vienna Fortran balanced BLOCK variant.
	Vienna bool
	// Templates enables the HPF baseline TEMPLATE model.
	Templates bool
	// Params are integer inputs (PARAMETER-like, READ targets).
	Params map[string]int
	// ParamArrays are integer vector inputs (GENERAL_BLOCK bounds,
	// indirection vectors).
	ParamArrays map[string][]int
	// Limits bound the interpreter (zero values use the defaults).
	Limits Options
}

// NewProgram builds the hpf.Program described by the config. The
// caller owns the program and must Close it.
func (cfg Config) NewProgram() (*hpf.Program, error) {
	name := cfg.Name
	if name == "" {
		name = "main"
	}
	np := cfg.NP
	if np == 0 {
		np = 8
	}
	engineKind := cfg.Engine
	if engineKind == "" {
		engineKind = hpf.DefaultEngine()
	}
	transportKind := cfg.Transport
	if transportKind == "" {
		transportKind = hpf.DefaultTransport()
	}
	prog, err := hpf.NewProgramTransport(name, engineKind, transportKind, np, hpf.DefaultCost())
	if err != nil {
		return nil, err
	}
	cfg.Apply(prog)
	return prog, nil
}

// Apply sets the config's parameters and model options on an existing
// program (one built over an engine the caller owns, as PrepareOn
// does).
func (cfg Config) Apply(prog *hpf.Program) {
	prog.UseViennaBlock(cfg.Vienna)
	if cfg.Templates {
		prog.EnableTemplates()
	}
	// Deterministic application order, so duplicate definitions
	// resolve identically everywhere.
	for _, k := range sortedKeys(cfg.Params) {
		prog.SetParam(k, cfg.Params[k])
	}
	for _, k := range sortedKeys(cfg.ParamArrays) {
		prog.SetParamArray(k, cfg.ParamArrays[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PrepareOn builds a program over eng, which it then owns, applies the
// config and prepares src as a job on it: what every member of a
// multi-process hpfrun job does on each attempt.
func (cfg Config) PrepareOn(eng engine.Engine, src string) (*Job, error) {
	prog, err := hpf.NewProgramOn(cfg.Name, eng)
	if err != nil {
		return nil, err
	}
	cfg.Apply(prog)
	return NewWith(prog, cfg.Limits).Prepare(src)
}

// Run builds the program, interprets src on it, and closes it. The
// returned result remains valid after the close.
func (cfg Config) Run(src string) (*Result, error) {
	prog, err := cfg.NewProgram()
	if err != nil {
		return nil, err
	}
	defer prog.Close()
	return NewWith(prog, cfg.Limits).Run(src)
}

// optionsPrefix marks an embedded options line in a program file:
//
//	!hpfrun: -np 6 -param N=48,ITERS=5 -vienna -templates
//
// so corpus programs carry their own processor count and inputs.
const optionsPrefix = "!hpfrun:"

// ScanFileOptions extracts the embedded !hpfrun: options line from a
// program source, if any, merging it into cfg (explicit cfg values
// win: the file sets NP/params only where cfg leaves them zero/unset).
func ScanFileOptions(src string, cfg *Config) error {
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if !strings.HasPrefix(strings.ToLower(s), optionsPrefix) {
			continue
		}
		fields := strings.Fields(s[len(optionsPrefix):])
		for i := 0; i < len(fields); i++ {
			switch fields[i] {
			case "-np":
				i++
				if i >= len(fields) {
					return fmt.Errorf("interp: %s -np needs a value", optionsPrefix)
				}
				np, err := strconv.Atoi(fields[i])
				if err != nil || np < 1 {
					return fmt.Errorf("interp: %s bad -np %q", optionsPrefix, fields[i])
				}
				if cfg.NP == 0 {
					cfg.NP = np
				}
			case "-param":
				i++
				if i >= len(fields) {
					return fmt.Errorf("interp: %s -param needs a value", optionsPrefix)
				}
				params := map[string]int{}
				if err := ParseParams(fields[i], params); err != nil {
					return err
				}
				for k, v := range params {
					if cfg.Params == nil {
						cfg.Params = map[string]int{}
					}
					if _, ok := cfg.Params[k]; !ok {
						cfg.Params[k] = v
					}
				}
			case "-vienna":
				cfg.Vienna = true
			case "-templates":
				cfg.Templates = true
			default:
				return fmt.Errorf("interp: %s unknown option %q", optionsPrefix, fields[i])
			}
		}
		return nil
	}
	return nil
}

// ParseParams parses a "NAME=V,NAME=V" list (hpfrun/hpfmap -param
// flags and embedded option lines) into params. Names are
// upper-cased to match the directive language.
func ParseParams(s string, params map[string]int) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" {
			return fmt.Errorf("interp: bad parameter %q (want NAME=VALUE)", kv)
		}
		v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return fmt.Errorf("interp: bad value in %q: %v", kv, err)
		}
		params[strings.ToUpper(strings.TrimSpace(parts[0]))] = v
	}
	return nil
}

// ReadSource loads a program text from a file path, or from stdin
// when path is "-".
func ReadSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", fmt.Errorf("interp: reading stdin: %v", err)
		}
		return string(b), nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("interp: %v", err)
	}
	return string(b), nil
}
