package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataio"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/text"
)

// Direct timings of single layers, taken in the traced run by calling the
// layer's public function on the job key's adapter and test split. They are
// the same on every workload; what differs is which workload's end-to-end
// numbers they should move (README.md).

// perCallUS times rounds of f, each covering calls operations, and returns
// the median round's microseconds per operation. The first round, which
// grows scratch buffers, is not counted.
func perCallUS(rounds, calls int, f func()) float64 {
	f()
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		f()
		per[r] = float64(time.Since(start)) / float64(time.Microsecond) / float64(calls)
	}
	return median(per)
}

const layerRounds = 9

func layerMetrics(e *env, seed int64, outDir string) (map[string]float64, error) {
	out := map[string]float64{}
	ref := e.refs[jobKey]
	m, k := ref.ad.Model, ref.ad.Knowledge
	spec := tasks.SpecFor(ref.ad.Kind)
	rows := ref.test
	n := len(rows) - len(rows)%8 // whole batches of 8
	ctx := context.Background()

	// tasks / text: prompt building and hashing, per row.
	exs := make([]tasks.Example, n)
	out["tasks.build_example_us"] = perCallUS(layerRounds, n, func() {
		for i := 0; i < n; i++ {
			tasks.BuildExampleInto(&exs[i], spec, rows[i], k)
		}
	})
	enc := text.NewEncoder(m.Hasher)
	var sparse tensor.Sparse
	out["text.encode_us"] = perCallUS(layerRounds, n, func() {
		for i := 0; i < n; i++ {
			enc.EncodeTo(&sparse, exs[i].Segments)
		}
	})

	// model: the batched forward at batch 1 and batch 8, per example.
	ptrs := make([]*tasks.Example, n)
	for i := range exs {
		ptrs[i] = &exs[i]
	}
	for _, b := range []struct {
		name string
		size int
	}{{"model.scores_b1_us", 1}, {"model.scores_b8_us", 8}} {
		out[b.name] = perCallUS(layerRounds, n, func() {
			for i := 0; i < n; i += b.size {
				m.ScoresBatch(ptrs[i : i+b.size])
			}
		})
	}

	// nn / tensor: one dense layer and one matmul at 8 x hidden.
	h := m.Cfg.Hidden
	rng := rand.New(rand.NewSource(1))
	dense := nn.NewDense("bench", h, h, rng)
	u, y, w := tensor.NewMat(8, h), tensor.NewMat(8, h), tensor.NewMat(h, h)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	var pool tensor.Pool
	const kernelCalls = 2000
	out["nn.dense_b8_us"] = perCallUS(layerRounds, kernelCalls, func() {
		for i := 0; i < kernelCalls; i++ {
			dense.ForwardBatch(u, y, &pool)
		}
	})
	out["tensor.matmul_nt_us"] = perCallUS(layerRounds, kernelCalls, func() {
		for i := 0; i < kernelCalls; i++ {
			tensor.MatMulNT(u, w, y)
		}
	})
	// Computed from the shapes (8 x h times the transpose of h x h), not measured.
	out["tensor.matmul_nt_flops"] = float64(2 * 8 * h * h)

	// core: the whole direct predict path, per row.
	for _, b := range []struct {
		name string
		size int
	}{{"core.predict_b1_us", 1}, {"core.predict_b8_us", 8}} {
		out[b.name] = perCallUS(layerRounds, n, func() {
			for i := 0; i < n; i += b.size {
				ref.ad.PredictBatch(ctx, rows[i:i+b.size])
			}
		})
	}

	// model.Train: one epoch over a fixed 512-example slice.
	train := e.zoo.DownstreamByKey(jobKey).DS.Train
	if len(train) > 512 {
		train = train[:512]
	}
	examples := model.ExamplesFrom(ref.ad.Kind, train, nil)
	clone := e.zoo.Upstream(zooSize).Clone()
	ps := clone.Params()
	start := time.Now()
	model.Train(clone, examples, model.TrainConfig{Epochs: 1, LR: 0.01, Clip: 5, Seed: 1}, &ps)
	out["model.train_examples_per_s"] = float64(len(examples)) / time.Since(start).Seconds()

	// dataio: decoding one job input.
	input, _, err := jobDataset(ref, seed)
	if err != nil {
		return nil, err
	}
	var decodeErr error
	out["dataio.decode_json_ms"] = perCallUS(5, 1, func() {
		if _, err := dataio.DecodeJSON(bytes.NewReader(input)); err != nil {
			decodeErr = err
		}
	}) / 1e3
	if decodeErr != nil {
		return nil, decodeErr
	}

	// jobs: one durable checkpoint append of a shard record (fsync included).
	dir, err := os.MkdirTemp(outDir, "log-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.ckpt")
	st, err := jobs.ReadLog(path)
	if err != nil {
		return nil, err
	}
	lg, err := st.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	shardRows := jobRows / jobShards
	answers := make([]string, shardRows)
	for i := range answers {
		answers[i] = ref.want[i%len(ref.want)]
	}
	var appendErr error
	shard := 0
	out["jobs.checkpoint_append_us"] = perCallUS(21, 1, func() {
		if err := lg.Append(&jobs.Record{Type: "shard", Shard: shard, Rows: shardRows, Answers: answers}); err != nil {
			appendErr = err
		}
		shard++
	})
	return out, appendErr
}
