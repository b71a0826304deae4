package dtbgc

import (
	"context"
	"io"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/tournament"
)

// AdaptivePolicy is a Policy family whose members learn: rather than
// computing the threatening boundary as a pure function, an adaptive
// policy mints a fresh PolicyInstance per run which carries online
// state — bandit arm statistics, gradient weights — updated after
// every scavenge. The policy value itself stays immutable
// configuration, so one AdaptivePolicy can drive many concurrent runs.
type AdaptivePolicy = core.AdaptivePolicy

// PolicyInstance is one run's worth of adaptive policy state: Boundary
// picks each scavenge's threatening boundary and Observe learns from
// its outcome. Its learning is deterministic given the instance seed,
// and a checkpointed replay resumes the live instance, so the resumed
// run stays bit-identical.
type PolicyInstance = core.PolicyInstance

// EpsGreedyPolicy returns an adaptive ε-greedy bandit over a grid of
// candidate boundary fractions: with probability eps it explores a
// random arm, otherwise it exploits the best observed mean reward
// (negative tracing-plus-tenured-garbage cost). eps in [0, 1].
func EpsGreedyPolicy(eps float64) Policy { return core.Bandit{Eps: eps} }

// UCBPolicy returns an adaptive UCB1 bandit over the same candidate
// grid, with exploration coefficient c > 0.
func UCBPolicy(c float64) Policy { return core.Bandit{UCB: c} }

// GradientPolicy returns the adaptive online-gradient controller: the
// boundary is a learned logistic function of scavenge features,
// updated after every collection. The zero value takes the stock
// learning rate and trace budget.
func GradientPolicy() Policy { return core.Gradient{} }

// TournamentOptions parameterizes RunTournament; the zero value runs
// the default roster over the paper corpus with an 8-seed sweep.
type TournamentOptions = tournament.Options

// TournamentResult is a complete tournament report: paired cells,
// leaderboard standings, FDR-adjusted pairwise comparisons, and the
// workloads where an adaptive policy beat every stock policy.
type TournamentResult = tournament.Result

// RunTournament runs the policy tournament: every roster policy over
// every workload and sweep seed, fully paired (one shared trace per
// cell), ranked by composite memory/CPU cost with paired permutation
// significance. Deterministic: the same options reproduce the same
// report bit-for-bit.
func RunTournament(ctx context.Context, opts TournamentOptions) (*TournamentResult, error) {
	return tournament.Run(ctx, opts)
}

// DefaultTournamentRoster returns the standard tournament entrants as
// ParsePolicy specs: the paper's Table-1 policies plus the adaptive
// bandit and gradient controllers.
func DefaultTournamentRoster() []string { return tournament.DefaultRoster() }

// WriteTournamentMarkdown renders a tournament report as markdown.
func WriteTournamentMarkdown(w io.Writer, res *TournamentResult) error {
	return res.WriteMarkdown(w)
}
