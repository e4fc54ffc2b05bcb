"""KunServe reproduction: parameter-centric memory management for LLM serving.

This package reproduces the system described in *KUNSERVE: Parameter-centric
Memory Management for Efficient Memory Overloading Handling in LLM Serving*
(EuroSys 2026) as a discrete-event simulation.  It contains:

* ``repro.simulation`` -- the discrete-event engine used by everything else.
* ``repro.cluster`` -- GPU / server / network hardware models.
* ``repro.models`` -- LLM model specifications and memory accounting.
* ``repro.memory`` -- GPU physical/virtual memory and the paged KV cache.
* ``repro.engine`` -- a vLLM-class serving engine (continuous batching,
  chunked prefill, pipeline and tensor parallelism).
* ``repro.policies`` -- memory-overload handling baselines (recompute, swap,
  migrate) and the KunServe parameter-drop policy.
* ``repro.core`` -- KunServe itself: drop-plan generation, coordinated
  KV-cache exchange, lookahead batch formulation, dynamic restoration.
* ``repro.serving`` -- the cluster-level serving system (dispatcher,
  monitor, end-to-end trace replay).
* ``repro.workloads`` -- synthetic BurstGPT/ShareGPT/LongBench workloads.
* ``repro.experiments`` -- one module per paper table / figure.
* ``repro.scenarios`` -- synthetic stress scenarios and policy sweeps.
* ``repro.fleet`` -- elastic fleet layer (routing, admission, autoscaling).
* ``repro.sweeps`` -- unified incremental sweep engine (result cache +
  shared warm worker pool) behind every sweep CLI.
"""

from repro.version import __version__

__all__ = ["__version__"]
