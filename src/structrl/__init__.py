"""Rollout, reward, and verification engine for structure-enhanced
retrieval QA reasoning.

The package parses tagged reasoning trajectories, builds the two prompts of
the two-stage self-reward rollout, scores answers with EM/F1, computes
group-relative advantages and the clipped objective from supplied
log-probabilities, and numerically checks the information-density ordering
that motivates structured reformulation.
"""
from .backends import (
    Generation,
    GenerationBackend,
    HTTPBackend,
    MockBackend,
    SamplingParams,
    make_backend,
    prompt_digest,
)
from .dataset import QueryInstance, load_jsonl, sample, write_jsonl
from .density import (
    DensityMeasurement,
    FactSet,
    Matcher,
    StructureCandidate,
    best_structure,
    density,
    generate_synthetic,
    info_content,
    verify_ordering,
)
from .errors import StructRLError
from .evaluation import MetricsSummary, evaluate, report
from .grpo import (
    AdvantageSet,
    ObjectiveConfig,
    RewardGroup,
    TokenLogProbs,
    clipped_term,
    group_advantages,
    kl_term,
    objective,
)
from .prompting import (
    PREDEFINED_FORMATS,
    build_main_prompt,
    build_reinference_prompt,
)
from .reward import (
    LambdaSchedule,
    RewardBreakdown,
    combined_reward,
    direct_reward,
    exact_match,
    f1,
    lambda_at,
    reinference_reward,
)
from .rollout import (
    RolloutConfig,
    RolloutGroup,
    TrajectoryPair,
    rollout_one,
    run_rollouts,
)
from .trajectory import (
    Block,
    BlockKind,
    DocIndex,
    Rule,
    Trajectory,
    ValidationReport,
    extract_formats,
    parse_trajectory,
    validate,
)

__version__ = "0.1.0"
