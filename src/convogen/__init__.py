"""convogen: turns heterogeneous image metadata manifests into multi-turn
visual instruction conversations with an LLM in the loop."""

from .config import FeatureFlags, PipelineConfig, load_config
from .context import ContextSentence, ContextSet, assemble_context
from .gateway import GatewayConfig, LlmGateway
from .generation import (
    Conversation,
    GenerationParams,
    Turn,
    generate_conversation,
    generate_conversation_direct,
    stopping_criteria,
)
from .ingestion import DatasetDescriptor, DatasetRegistry, LinkKey, group_by_image, link_key
from .metadata import (
    BoxAnnotation,
    CaptionAnnotation,
    ImageRef,
    MetadataBundle,
    QAAnnotation,
    clamp_box,
    merge_bundles,
)
from .pipeline import run_pipeline, write_conversation
from .prompts import PromptDistribution, PromptTemplate, parse_conversation, render, sample_template
from .scene_tree import SceneTree, SceneTreeParams, SceneRegion, build_scene_tree, serialize_tree
from .scripted_server import ScriptedLlmServer
from .sharding import claim_shard, plan_shards

__version__ = "0.1.0"

__all__ = [
    "BoxAnnotation",
    "CaptionAnnotation",
    "ContextSentence",
    "ContextSet",
    "Conversation",
    "DatasetDescriptor",
    "DatasetRegistry",
    "FeatureFlags",
    "GatewayConfig",
    "GenerationParams",
    "ImageRef",
    "LinkKey",
    "LlmGateway",
    "MetadataBundle",
    "PipelineConfig",
    "PromptDistribution",
    "PromptTemplate",
    "QAAnnotation",
    "SceneRegion",
    "SceneTree",
    "SceneTreeParams",
    "ScriptedLlmServer",
    "Turn",
    "assemble_context",
    "build_scene_tree",
    "claim_shard",
    "clamp_box",
    "generate_conversation",
    "generate_conversation_direct",
    "group_by_image",
    "link_key",
    "load_config",
    "merge_bundles",
    "parse_conversation",
    "plan_shards",
    "render",
    "run_pipeline",
    "sample_template",
    "serialize_tree",
    "stopping_criteria",
    "write_conversation",
]
