package fleet

import "io"

// RunJob is Config followed by Run. Neither the CLI nor a sweep calls
// it (both build the configuration first); it stays because
// bench/probes.go:284 counts the mallocs of one job through it.
func (e *Engine) RunJob(j Job, w io.Writer) (Result, error) {
	cfg, err := e.Config(j)
	if err != nil {
		return Result{}, err
	}
	return e.Run(cfg, w)
}
