"""sqlknow: knowledge-base construction and retrieval for text-to-SQL.

Builds a per-database knowledge base (annotated schema, value mappings, mined
domain terms) and a cross-corpus query-pattern graph, then serves them for
schema linking, prompt assembly, synthetic training-data generation, and
execution-based reward scoring. All LLM access goes through one pluggable
gateway with a deterministic mock, so every algorithm is verifiable offline.
"""
