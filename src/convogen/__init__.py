"""convogen: turns heterogeneous image metadata manifests into multi-turn
visual instruction conversations with an LLM in the loop."""
