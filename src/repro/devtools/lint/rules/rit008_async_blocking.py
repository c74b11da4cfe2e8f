"""RIT008 — blocking calls inside ``async def`` bodies in ``repro.service``.

The service's event loop multiplexes the ingestion frontend, the epoch
scheduler and the shard-worker dispatch on one thread.  A blocking call
inside a coroutine (``time.sleep``, synchronous file I/O) stalls every
queue on the loop at once: producers hit backpressure they shouldn't,
epoch latency percentiles become fiction, and an open-loop producer
deadlocks against its own consumer.  Blocking work belongs in
the worker thread pool (``loop.run_in_executor``) — which is exactly why
nested *synchronous* ``def`` bodies are exempt: those are the executor
thunks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.imports import ImportMap
from repro.devtools.lint.model import Finding
from repro.devtools.lint.rules.base import Rule

__all__ = ["AsyncBlockingCalls", "BLOCKING_CALLS", "BLOCKING_METHODS"]

#: Resolved dotted names (or the bare builtin) that block the thread.
#: Shared with the whole-program analyzer's RIT009 (which looks for these
#: *reachable from* a coroutine, not just lexically inside one).
BLOCKING_CALLS = {
    "time.sleep": "use 'await asyncio.sleep(...)' instead",
    "io.open": "run file I/O in the worker pool via loop.run_in_executor",
    "open": "run file I/O in the worker pool via loop.run_in_executor",
}

#: Method names that perform synchronous file I/O (Path.read_text etc.).
BLOCKING_METHODS = {
    "read_text": "synchronous file read",
    "write_text": "synchronous file write",
    "read_bytes": "synchronous file read",
    "write_bytes": "synchronous file write",
}

# Historical private names (pre-analyzer call sites).
_BANNED_CALLS = BLOCKING_CALLS
_BANNED_METHODS = BLOCKING_METHODS


class AsyncBlockingCalls(Rule):
    id = "RIT008"
    name = "async-blocking"
    rationale = (
        "a blocking call inside a coroutine stalls the whole service event "
        "loop; blocking work belongs in the executor thread pool"
    )
    scopes = ("repro.service",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap.collect(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for statement in node.body:
                    yield from self._visit(ctx, statement, imports)

    def _visit(
        self, ctx: FileContext, node: ast.AST, imports: ImportMap
    ) -> Iterator[Finding]:
        # A nested sync ``def`` is an executor thunk, not loop code; a
        # nested ``async def`` is picked up by the outer walk.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(ctx, node, imports)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, child, imports)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, imports: ImportMap
    ) -> Iterator[Finding]:
        resolved = imports.resolve(node.func)
        if resolved is None and isinstance(node.func, ast.Name):
            # Un-imported bare name: the only relevant one is builtin open.
            resolved = node.func.id
        if resolved in _BANNED_CALLS:
            yield self.finding(
                ctx,
                node,
                f"blocking call '{resolved}' inside an async def; "
                f"{_BANNED_CALLS[resolved]}",
            )
            return
        if isinstance(node.func, ast.Attribute):
            hint = _BANNED_METHODS.get(node.func.attr)
            if hint is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{hint} '.{node.func.attr}(...)' inside an async def; "
                    "dispatch it to the worker pool via loop.run_in_executor",
                )
