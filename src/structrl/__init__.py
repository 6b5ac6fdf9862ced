"""Rollout, reward, and verification engine for structure-enhanced
retrieval QA reasoning.

The package parses tagged reasoning trajectories, builds the two prompts of
the two-stage self-reward rollout, scores answers with EM/F1, computes
group-relative advantages and the clipped objective from supplied
log-probabilities, and numerically checks the information-density ordering
that motivates structured reformulation.

The package root re-exports nothing: import each name from the module that
defines it, such as ``structrl.rollout.run_rollouts``.
"""
