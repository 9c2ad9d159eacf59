package bench

// The red-team robustness matrix: every attack variant in the standard
// battery against every estimation scheme, on the mean task (PM) and the
// frequency task (k-RR). One collection per trial is shared across the
// scheme rows (warm-chained, like the paper experiments since PR 4), so a
// matrix row is a paired comparison on identical data and the whole
// matrix stays cheap enough to run in CI. cmd/dapredteam drives RunMatrix
// and renders the report; `dapbench -exp matrix` prints the same cells as
// tables.

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/rng"
)

// NamedAttack couples a registry attack spec with its matrix row label.
type NamedAttack struct {
	Label string      `json:"label"`
	Spec  attack.Spec `json:"spec"`
}

// MatrixAttacks is the standard numeric red-team battery: the paper's
// four threat models plus the registry's composed variants (dropout,
// heterogeneous and distribution-shaped collusion). The "none" row runs
// at γ=0 and anchors the no-attack error floor.
func MatrixAttacks() []NamedAttack {
	return []NamedAttack{
		{"none", attack.Spec{Name: "none"}},
		{"bba[C/2,C]", attack.Spec{Name: "bba"}},
		{"bba[3C/4,C]-gauss", attack.Spec{Name: "bba", Range: "[3C/4,C]", Dist: "gaussian"}},
		{"bba-left-beta16", attack.Spec{Name: "bba", Side: "left", Dist: "beta16"}},
		{"gba-50/50", attack.Spec{Name: "gba"}},
		{"ima(g=-1)", attack.Spec{Name: "ima"}},
		{"evasion(a=0.25)", attack.Spec{Name: "evasion"}},
		{"opportunistic", attack.Spec{Name: "opportunistic"}},
		{"dropout-50", attack.Spec{Name: "dropout"}},
		{"hetero[1,0.25]", attack.Spec{Name: "hetero", GroupFrac: []float64{1, 0.25}}},
	}
}

// MatrixFreqAttacks is the categorical battery of the frequency panel.
func MatrixFreqAttacks() []NamedAttack {
	return []NamedAttack{
		{"freq-none", attack.Spec{Name: "none"}},
		{"targeted-top", attack.Spec{Name: "targeted", Cats: []int{15}}},
		{"maxgain-2", attack.Spec{Name: "maxgain", Targets: 2}},
	}
}

// MatrixRow is one (task, attack, scheme) cell of the robustness matrix.
type MatrixRow struct {
	// Task is the task kind the cell ran ("mean" or "frequency").
	Task string `json:"task"`
	// Attack is the battery row label; AttackName the built adversary's
	// self-description.
	Attack     string `json:"attack"`
	AttackName string `json:"attack_name"`
	// Scheme is the estimation scheme of the cell.
	Scheme string `json:"scheme"`
	// Gamma is the Byzantine proportion the cell simulated.
	Gamma float64 `json:"gamma"`
	// MSE is the mean squared error of the estimate against the honest
	// truth (component-averaged for frequency rows).
	MSE float64 `json:"mse"`
	// GammaErr is the mean absolute error of the probed γ̂.
	GammaErr float64 `json:"gamma_err"`
}

// MatrixReport is the machine-readable robustness-matrix record; Markdown
// renders the human-readable pivot.
type MatrixReport struct {
	Schema int         `json:"schema"`
	N      int         `json:"n"`
	Trials int         `json:"trials"`
	Seed   uint64      `json:"seed"`
	Gamma  float64     `json:"gamma"`
	Rows   []MatrixRow `json:"rows"`
}

// RunMatrix evaluates the standard attack battery against every scheme at
// the given Byzantine proportion. Deterministic for a fixed cfg.Seed,
// independent of cfg.Workers: every (task, attack) cell owns a fixed rng
// stream and rows are collected in battery order.
func RunMatrix(cfg Config, gamma float64) (*MatrixReport, error) {
	return RunMatrixExtra(cfg, gamma, nil)
}

// RunMatrixExtra is RunMatrix with extra numeric registry attacks
// appended to the standard battery (cmd/dapredteam's -attacks).
func RunMatrixExtra(cfg Config, gamma float64, extra []NamedAttack) (*MatrixReport, error) {
	cfg = cfg.withDefaults()
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("bench: matrix gamma %g outside (0,1)", gamma)
	}
	// Extras join the numeric mean-task panel, which is one-shot batch
	// simulation: categorical attacks would inject out-of-domain reports
	// and epoch-adaptive ones would run at their epoch-0 strength — both
	// would tabulate as meaningless rows, so they fail loudly instead.
	for _, na := range extra {
		if na.Spec.Categorical() {
			return nil, fmt.Errorf("bench: extra attack %q is categorical and cannot join the numeric matrix panel", na.Label)
		}
		if na.Spec.EpochAdaptive() {
			return nil, fmt.Errorf("bench: extra attack %q is epoch-adaptive and the batch matrix has no epochs; drive it with daploadgen -attack-epochs", na.Label)
		}
	}
	rep := &MatrixReport{Schema: 1, N: cfg.N, Trials: cfg.Trials, Seed: cfg.Seed, Gamma: gamma}
	p := cfg.newPool()

	numeric, err := matrixNumeric(cfg, p, gamma, append(MatrixAttacks(), extra...))
	if err != nil {
		return nil, err
	}
	freq, err := matrixFreq(cfg, p, gamma)
	if err != nil {
		return nil, err
	}
	for _, f := range numeric {
		rows, err := f.get()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	for _, f := range freq {
		rows, err := f.get()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// matrixNumeric schedules the mean-task panel: one future per attack,
// each running Trials shared collections estimated by all three schemes.
func matrixNumeric(cfg Config, p *pool, gamma float64, battery []NamedAttack) ([]*future[[]MatrixRow], error) {
	ds, err := loadDataset(cfg, "Beta(2,5)")
	if err != nil {
		return nil, err
	}
	truth := ds.TrueMean()
	daps, err := dapsForSchemes(1, cfg.EMFMaxIter)
	if err != nil {
		return nil, err
	}
	schemes := core.Schemes()
	futs := make([]*future[[]MatrixRow], 0, len(battery))
	for ai, na := range battery {
		na := na
		adv, err := attack.New(na.Spec)
		if err != nil {
			return nil, err
		}
		g := gamma
		if na.Spec.Name == "none" {
			g = 0
		}
		seed := cfg.Seed + 0xA77AC0 + uint64(ai)*0x1000
		futs = append(futs, submit(p, func() ([]MatrixRow, error) {
			se := make([]float64, len(daps))
			ge := make([]float64, len(daps))
			for j := 0; j < cfg.Trials; j++ {
				r := rng.Split(seed, uint64(j))
				col, err := daps[0].Collect(r, ds.Values, adv, g)
				if err != nil {
					return nil, err
				}
				var warm *core.WarmState
				for i, d := range daps {
					est, err := d.Estimate(core.WithWarm(context.Background(), warm), col)
					if err != nil {
						return nil, err
					}
					if warm == nil {
						warm = est.Warm
					}
					se[i] += (est.Mean - truth) * (est.Mean - truth)
					ge[i] += math.Abs(est.Gamma - g)
				}
			}
			rows := make([]MatrixRow, len(daps))
			for i := range daps {
				rows[i] = MatrixRow{
					Task: string(core.TaskMean), Attack: na.Label, AttackName: adv.Name(),
					Scheme: schemes[i].String(), Gamma: g,
					MSE: se[i] / float64(cfg.Trials), GammaErr: ge[i] / float64(cfg.Trials),
				}
			}
			return rows, nil
		}))
	}
	return futs, nil
}

// matrixFreq schedules the frequency-task panel over the synthetic Zipf
// population of the spec sweep (K=16).
func matrixFreq(cfg Config, p *pool, gamma float64) ([]*future[[]MatrixRow], error) {
	const k = 16
	cats, truth := zipfCats(cfg.N, k)
	schemes := core.Schemes()
	freqs := make([]*core.FreqDAP, len(schemes))
	for i, sc := range schemes {
		d, err := freqDAP(sc, 1, k, cfg.EMFMaxIter)
		if err != nil {
			return nil, err
		}
		freqs[i] = d
	}
	futs := make([]*future[[]MatrixRow], 0, len(MatrixFreqAttacks()))
	for ai, na := range MatrixFreqAttacks() {
		na := na
		adv, err := attack.New(na.Spec)
		if err != nil {
			return nil, err
		}
		g := gamma
		if na.Spec.Name == "none" {
			g = 0
		}
		seed := cfg.Seed + 0xF4EAC0 + uint64(ai)*0x1000
		futs = append(futs, submit(p, func() ([]MatrixRow, error) {
			se := make([]float64, len(freqs))
			ge := make([]float64, len(freqs))
			for j := 0; j < cfg.Trials; j++ {
				r := rng.Split(seed, uint64(j))
				col, err := freqs[0].CollectFreqAdv(r, cats, adv, g)
				if err != nil {
					return nil, err
				}
				var warm *core.WarmState
				for i, d := range freqs {
					est, err := d.EstimateHist(core.WithWarm(context.Background(), warm), col)
					if err != nil {
						return nil, err
					}
					if warm == nil {
						warm = est.Warm
					}
					var mse float64
					for c := range truth {
						diff := est.Freqs[c] - truth[c]
						mse += diff * diff
					}
					se[i] += mse / float64(len(truth))
					ge[i] += math.Abs(est.Gamma - g)
				}
			}
			rows := make([]MatrixRow, len(freqs))
			for i := range freqs {
				rows[i] = MatrixRow{
					Task: string(core.TaskFrequency), Attack: na.Label, AttackName: adv.Name(),
					Scheme: schemes[i].String(), Gamma: g,
					MSE: se[i] / float64(cfg.Trials), GammaErr: ge[i] / float64(cfg.Trials),
				}
			}
			return rows, nil
		}))
	}
	return futs, nil
}

// zipfCats builds the deterministic 1/(j+1)-weighted categorical
// population shared with the spec sweep, plus its true frequency vector.
func zipfCats(n, k int) ([]int, []float64) {
	weights := make([]float64, k)
	var wSum float64
	for j := range weights {
		weights[j] = 1 / float64(j+1)
		wSum += weights[j]
	}
	cats := make([]int, n)
	idx := 0
	for j := range weights {
		cnt := int(weights[j] / wSum * float64(n))
		for c := 0; c < cnt && idx < len(cats); c++ {
			cats[idx] = j
			idx++
		}
	}
	for ; idx < len(cats); idx++ {
		cats[idx] = 0
	}
	truth := make([]float64, k)
	for _, c := range cats {
		truth[c] += 1 / float64(len(cats))
	}
	return cats, truth
}

// errWriter forwards writes to w until one fails, then swallows the rest
// and keeps the first error — so a rendering function can print freely
// and report the failure once.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, nil
}

// Markdown renders the report as one pivoted table per task: attacks down
// the rows, schemes across the columns, MSE and γ̂-error side by side.
// The first write error aborts the rendering's effect and is returned.
func (rep *MatrixReport) Markdown(w io.Writer) error {
	ew := &errWriter{w: w}
	byTask := map[string][]MatrixRow{}
	var taskOrder []string
	for _, row := range rep.Rows {
		if _, ok := byTask[row.Task]; !ok {
			taskOrder = append(taskOrder, row.Task)
		}
		byTask[row.Task] = append(byTask[row.Task], row)
	}
	fmt.Fprintf(ew, "# Red-team robustness matrix\n\n")
	fmt.Fprintf(ew, "N=%d users, %d trials per cell, seed %d, γ=%g (the `none` rows run at γ=0).\n",
		rep.N, rep.Trials, rep.Seed, rep.Gamma)
	fmt.Fprintf(ew, "Scheme rows share one collection per trial, so each row is a paired comparison.\n")
	for _, task := range taskOrder {
		rows := byTask[task]
		// Collect scheme order and attack order as first seen.
		var schemes, attacks []string
		cells := map[string]MatrixRow{}
		for _, row := range rows {
			if !slices.Contains(schemes, row.Scheme) {
				schemes = append(schemes, row.Scheme)
			}
			if !slices.Contains(attacks, row.Attack) {
				attacks = append(attacks, row.Attack)
			}
			cells[row.Attack+"\x00"+row.Scheme] = row
		}
		fmt.Fprintf(ew, "\n## task %s\n\n", task)
		header := []string{"attack", "γ"}
		for _, s := range schemes {
			header = append(header, s+" MSE")
		}
		for _, s := range schemes {
			header = append(header, s+" |γ̂−γ|")
		}
		fmt.Fprintf(ew, "| %s |\n|%s\n", strings.Join(header, " | "), strings.Repeat("---|", len(header)))
		for _, a := range attacks {
			// γ from any present cell; missing (attack, scheme) cells render
			// as "-" instead of zero values (partial or filtered reports).
			gammaCell := "-"
			for _, s := range schemes {
				if c, ok := cells[a+"\x00"+s]; ok {
					gammaCell = fmt.Sprintf("%.2f", c.Gamma)
					break
				}
			}
			cols := []string{a, gammaCell}
			for _, s := range schemes {
				if c, ok := cells[a+"\x00"+s]; ok {
					cols = append(cols, fmt.Sprintf("%.3e", c.MSE))
				} else {
					cols = append(cols, "-")
				}
			}
			for _, s := range schemes {
				if c, ok := cells[a+"\x00"+s]; ok {
					cols = append(cols, fmt.Sprintf("%.3f", c.GammaErr))
				} else {
					cols = append(cols, "-")
				}
			}
			fmt.Fprintf(ew, "| %s |\n", strings.Join(cols, " | "))
		}
	}
	return ew.err
}

// Tables converts the report into the harness table shape for dapbench.
func (rep *MatrixReport) Tables() []*Table {
	byTask := map[string]*Table{}
	var out []*Table
	for _, row := range rep.Rows {
		t, ok := byTask[row.Task]
		if !ok {
			t = &Table{
				Title:  fmt.Sprintf("robustness matrix: task=%s γ=%g (attack × scheme)", row.Task, rep.Gamma),
				Header: []string{"attack", "scheme", "gamma", "mse", "gamma_err"},
			}
			byTask[row.Task] = t
			out = append(out, t)
		}
		t.Rows = append(t.Rows, []string{
			row.Attack, row.Scheme, fmt.Sprintf("%.2f", row.Gamma),
			e2s(row.MSE), fmt.Sprintf("%.4f", row.GammaErr),
		})
	}
	return out
}

// Matrix is the dapbench-registered experiment wrapper around RunMatrix
// at the default red-team γ=0.25.
func Matrix(cfg Config) ([]*Table, error) {
	rep, err := RunMatrix(cfg, 0.25)
	if err != nil {
		return nil, err
	}
	return rep.Tables(), nil
}
