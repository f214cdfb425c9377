package feature

import (
	"context"
	"time"

	"turbo/internal/behavior"
)

// FetchVectors is the bulk retrieval path of the full-graph sweep, the
// embed rebuild and the lifecycle cohort: the vectors of many users
// through src and norm (nil = raw), positionally aligned with users so callers can assemble a
// feature matrix without re-keying. vecs[i] and errs[i] report user
// users[i]: exactly one of the two is non-nil. A failing user does not
// abort the others — the gather resumes after it — so a context
// cancellation surfaces as the per-user error of the remaining users,
// and vectors fetched before it are kept. The vectors are shared and
// must not be mutated.
func FetchVectors(ctx context.Context, src Source, users []behavior.UserID, cutoff time.Time, norm *Norm) (vecs [][]float64, errs []error) {
	vecs = make([][]float64, len(users))
	errs = make([]error, len(users))
	for start := 0; start < len(users); {
		n, err := src.Gather(ctx, users[start:], cutoff, norm, func(i int, vec []float64) { vecs[start+i] = vec })
		if err == nil {
			break
		}
		errs[start+n] = err
		start += n + 1
	}
	return vecs, errs
}

// VectorsCtx is the service's bulk vector path: FetchVectors of raw rows
// over the service itself.
func (s *Service) VectorsCtx(ctx context.Context, users []behavior.UserID, cutoff time.Time) ([][]float64, []error) {
	return FetchVectors(ctx, s, users, cutoff, nil)
}
