// Package slate is a Go reproduction of "Slate: Enabling Workload-Aware
// Efficient Multiprocessing for Modern GPGPUs" (Allen, Feng, Ge — IPDPS
// 2019): a software-based GPU multiprocessing framework that transforms
// user kernels into persistent-worker form, selects complementary kernels
// from different processes to share the device, partitions SMs between
// them, and resizes running kernels as partners arrive and complete.
//
// The repository contains two complete stacks:
//
//   - A calibrated discrete-event simulator of the paper's NVIDIA Titan Xp
//     testbed (package gpu), on which the harness package regenerates every
//     table and figure of the paper's evaluation against the vanilla-CUDA
//     and MPS baselines; harness is the one place an application set
//     reaches a simulated CUDA, MPS or Slate scheduler.
//
//   - A real, runnable Slate runtime (package framework): client/daemon
//     sessions over a command channel with shared-buffer data transfer, the
//     kernel grid transformation with an atomic task queue and retreat
//     signal, CUDA source injection (the paper's Listings 1-3) with a
//     runtime-compilation cache, and a workload-aware executor that coruns
//     complementary kernels on host worker pools with dynamic resizing.
//
// Start with examples/quickstart, or run `go run ./cmd/slatebench -exp all`
// to regenerate the paper's results.
package slate
