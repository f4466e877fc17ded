"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all pipeline errors."""


class DimensionConflict(PipelineError):
    """The same image is reported with irreconcilable pixel dimensions."""


class DegenerateBox(PipelineError):
    """A box has no area left after clamping to the image."""


class ConfigError(PipelineError):
    """The pipeline configuration is missing or invalid."""


class DuplicateDataset(ConfigError):
    """A dataset id is already registered with a different descriptor."""


class LlmUnavailable(PipelineError):
    """The LLM endpoint failed after the retry budget was exhausted."""


class ProtocolError(PipelineError):
    """The LLM endpoint returned a malformed or unexpected response."""


class EmptyDescription(PipelineError):
    """The model produced no usable sentences for a scene description."""


class NoCompatibleTemplate(PipelineError):
    """No template in the distribution is compatible with the context."""


class UnresolvedPlaceholder(ConfigError):
    """A template names a placeholder that rendering has no value for."""


class NoTurnsGenerated(PipelineError):
    """A conversation ended with zero surviving turns."""


class AlreadyClaimed(PipelineError):
    """Another worker holds a fresh claim on the shard."""
