package bench

// Experiment pairs an experiment ID with its generator.
type Experiment struct {
	ID  string
	Run func(Config) (*Table, error)
}

// Experiments lists every regenerable figure and table in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", Fig1},
		{"fig6-gemm", Fig6GEMM},
		{"fig6-conv", Fig6Conv},
		{"fig7-gemm", Fig7GEMM},
		{"fig7-conv", Fig7Conv},
		{"fig8", Fig8},
		{"fig9", func(c Config) (*Table, error) { return Fig9(c, false) }},
		{"fig9-npu", func(c Config) (*Table, error) { return Fig9(c, true) }},
		{"fig10", Fig10},
		{"table5", Table5},
		{"table8", Table8},
		{"fig11", Fig11},
		{"fig12a", Fig12a},
		{"fig12b", Fig12b},
		{"fig13", Fig13},
		{"table9", Table9},
		{"ablation-patterns", AblationPatterns},
		{"ablation-pruning", AblationPruning},
		{"ablation-winograd", AblationWinograd},
		{"ablation-splitk", AblationSplitK},
		{"ext-detection", ExtDetection},
		{"ext-graphrt", ExtGraphRT},
		{"ext-obs-overhead", ExtObsOverhead},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
