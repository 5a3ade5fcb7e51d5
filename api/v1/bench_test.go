package apiv1

import (
	"bytes"
	"fmt"
	"testing"

	"scalesim"
)

// sampleResponse is what the daemon answers a batch of n one-core points
// that all hit the memory tier: the response a serve-hot client decodes.
func sampleResponse(n int) *JobResponse {
	resp := &JobResponse{Schema: Schema, Stats: scalesim.CampaignStats{Jobs: 91_234, UniqueRuns: 64, CacheHits: 91_170}}
	resp.Stats.Fronts.ChunksProduced, resp.Stats.Fronts.ChunksConsumed = 1_562, 1_562
	resp.Stats.Fronts.StreamsBuilt, resp.Stats.Fronts.BytesRetained = 64, 81_543_168
	for i := 0; i < n; i++ {
		resp.Outcomes = append(resp.Outcomes, JobOutcome{Job: i, Source: "memory", CacheHit: true, Result: &scalesim.SimResult{
			Machine: "target-32-sm1-PRS-MC-first",
			Cores: []scalesim.CoreResult{{
				Benchmark: "gcc", Instructions: 200_000, IPC: 0.5961832061068702 + float64(i)/1e3,
				BWBytesPerCycle: 0.6148713128911234, LLCMPKI: 13.855, BranchMispredictRate: 0.07218934911242604,
			}},
			DRAMUtilization: 0.6012480933526145, NoCUtilization: 0.0013421552063083, WallClockSec: 0.021932101,
			SimulatedSec: 0.00011184615384615385,
		}})
	}
	return resp
}

// sampleBatch is a request for the same n points.
func sampleBatch(n int) *JobRequest {
	jobs := make([]scalesim.CampaignJob, n)
	for i := range jobs {
		opts := scalesim.FastOptions()
		opts.Seed = uint64(i)
		jobs[i] = scalesim.CampaignJob{Machine: scalesim.MachineSpec{Cores: 1}, Benchmarks: []string{"gcc"}, Options: opts}
	}
	return NewJobRequest("scalebench", jobs)
}

// BenchmarkDecodeJobRequest and BenchmarkDecodeJobResponse price the two
// decodes of a served hit, for 1 and 8 jobs, on the canonical path and on
// the encoding/json reference, from the same bytes.
func BenchmarkDecodeJobRequest(b *testing.B) {
	for _, n := range []int{1, 8} {
		benchmarkDecode(b, n, sampleBatch(n), func() any { return new(JobRequest) })
	}
}

func BenchmarkDecodeJobResponse(b *testing.B) {
	for _, n := range []int{1, 8} {
		benchmarkDecode(b, n, sampleResponse(n), func() any { return new(JobResponse) })
	}
}

func benchmarkDecode(b *testing.B, n int, v any, fresh func() any) {
	var doc bytes.Buffer
	if err := Encode(&doc, v); err != nil {
		b.Fatal(err)
	}
	paths := []struct {
		name   string
		decode func([]byte, any) error
	}{
		{"canonical", func(doc []byte, v any) error {
			if !decodeCanonical(doc, v) {
				return fmt.Errorf("declined %s", doc)
			}
			return nil
		}},
		{"reference", decodeReference},
	}
	for _, path := range paths {
		b.Run(fmt.Sprintf("%d/%s", n, path.name), func(b *testing.B) {
			b.SetBytes(int64(doc.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := path.decode(doc.Bytes(), fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeJobResponse prices the daemon's answer to a served hit, for
// 1 and 8 outcomes, written by hand and by encoding/json, the reference.
func BenchmarkEncodeJobResponse(b *testing.B) {
	paths := []struct {
		name   string
		encode func(*JobResponse) ([]byte, error)
	}{
		{"canonical", func(r *JobResponse) ([]byte, error) {
			if doc, ok := encodeCanonical(r); ok {
				return doc, nil
			}
			return nil, fmt.Errorf("declined %+v", r)
		}},
		{"reference", func(r *JobResponse) ([]byte, error) { return marshalReference(r) }},
	}
	for _, n := range []int{1, 8} {
		resp := sampleResponse(n)
		for _, path := range paths {
			b.Run(fmt.Sprintf("%d/%s", n, path.name), func(b *testing.B) {
				doc, err := path.encode(resp)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(doc)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := path.encode(resp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
