"""Layer spans for the traced run, recorded from outside the program.

Every layer of the stack is entered through a handful of public entry
points.  :class:`LayerTracer` swaps each one for a thin wrapper in the
traced run's process; nothing in ``src/`` changes.  Module-level functions are replaced in every
``repro`` module that imported them by name, so a caller that did
``from .xmlformat import parse_envelope`` sees the wrapper too.

A span covers one call of a plain entry point, or one resumption of a
generator entry point (a simulated process is only charged while it
runs, never while it waits on simulated time).  The wrappers go in
before the world is built and stay for the whole traced run; they only
record while :attr:`LayerTracer.active` is set, i.e. during traced
rounds, so the untraced rounds of a traced run carry dormant wrappers.  A layer's self time is
its spans' wall time minus the time of the spans nested in them.  Every
traced step runs inside ``Simulator.run_until_complete``, the root
``sim`` span, so the self times of all layers add up to the traced wall
time; ``sim`` self time is the kernel plus any code no other layer
claims.
"""

from __future__ import annotations

import inspect
import sys
import time

_perf = time.perf_counter

#: Layers in report order (the modules of ``src/repro`` they stand for).
LAYERS = (
    "sim",
    "net",
    "http",
    "html",
    "browser",
    "content",
    "delta",
    "xmlformat",
    "agent",
    "snippet",
    "relay",
    "shard",
)


def _snippet_layer(snippet) -> str:
    # A relay's upstream channel is an AjaxSnippet renamed for tracing;
    # its work belongs to the relay tier, not to a member.
    return "relay" if snippet.apply_span_name == "relay.apply" else "snippet"


class LayerTracer:
    """Span stack, per-entry-point self time and call counts."""

    def __init__(self):
        self.active = False
        self._stack = []
        #: (layer, entry) -> [calls, self seconds]
        self.entries = {}
        #: Extra counts taken at the entry points (bytes decoded, ...).
        self.counts = {
            "xmlformat.decoded_bytes": 0,
            "html.parsed_bytes": 0,
            "snippet.polls": 0,
            "snippet.useful_polls": 0,
        }

    # -- span accounting ---------------------------------------------------------

    def _entry(self, key):
        slot = self.entries.get(key)
        if slot is None:
            slot = self.entries[key] = [0, 0.0]
        return slot

    def _enter(self, slot):
        self._stack.append([slot, _perf(), 0.0])

    def _exit(self):
        end = _perf()
        slot, start, child = self._stack.pop()
        elapsed = end - start
        slot[1] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def layer_totals(self):
        """layer -> (calls, self seconds)."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _entry), (calls, seconds) in self.entries.items():
            totals[layer][0] += calls
            totals[layer][1] += seconds
        return totals

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, layer, name, fn, on_call=None):
        """Wrap ``fn``; ``layer`` is a name or a function of ``self``."""
        tracer = self
        pick = layer if callable(layer) else None

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                # Wrapped even while dormant: a process started during
                # set-up (a keep-alive connection's serve loop) is still
                # charged to its layer in the traced rounds.
                slot = tracer._entry((pick(args[0]) if pick else layer, name))
                on_return = None
                if tracer.active:
                    slot[0] += 1
                    if on_call is not None:
                        on_return = on_call(args, kwargs)
                return tracer._resumptions(slot, fn(*args, **kwargs), on_return)

        else:

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                slot = tracer._entry((pick(args[0]) if pick else layer, name))
                slot[0] += 1
                if on_call is not None:
                    on_call(args, kwargs)
                tracer._enter(slot)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _resumptions(self, slot, gen, on_return):
        """Drive ``gen``, opening one span per resumption."""
        value = None
        error = None
        while True:
            traced = self.active
            if traced:
                self._enter(slot)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            finally:
                if traced:
                    self._exit()
            error = None
            value = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # re-thrown into gen on the next pass
                error = exc

    # -- patching ----------------------------------------------------------------

    def _patch_method(self, cls, attr, layer, on_call=None):
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            setattr(
                cls, attr, staticmethod(self._wrap(layer, attr, raw.__func__, on_call))
            )
        else:
            setattr(cls, attr, self._wrap(layer, attr, raw, on_call))

    def _patch_function(self, module, attr, layer, on_call=None):
        original = getattr(module, attr)
        wrapper = self._wrap(layer, attr, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(attr) is original:
                setattr(mod, attr, wrapper)

    def install(self):
        """Swap every entry point for its (dormant) wrapper."""
        from repro.browser.browser import Browser
        from repro.core import content, delta, relay, shard, snippet, xmlformat
        from repro.core.agent import RCBAgent
        from repro.html import parser, serializer
        from repro.http import client, message, parser as http_parser, server
        from repro.net import socket
        from repro.sim.kernel import Simulator

        counts = self.counts

        def count(key, size_of):
            def on_call(args, kwargs):
                counts[key] += size_of(args)
            return on_call

        def poll_started(args, kwargs):
            snip = args[0]
            if _snippet_layer(snip) != "snippet":
                return None
            counts["snippet.polls"] += 1
            received = len(snip.stats.actions_received)

            def on_return(applied):
                if applied or len(snip.stats.actions_received) > received:
                    counts["snippet.useful_polls"] += 1

            return on_return

        for attr in ("run_until_complete", "run", "step"):
            self._patch_method(Simulator, attr, "sim")
        for attr in ("send", "sendv", "recv", "close"):
            self._patch_method(socket.Connection, attr, "net")
        self._patch_method(socket.Host, "connect", "net")

        self._patch_method(client.HttpClient, "request", "http")
        self._patch_function(server, "serve_connection", "http")
        self._patch_method(http_parser._MessageParser, "feed", "http")
        self._patch_method(message.HttpRequest, "to_bytes", "http")
        self._patch_method(message.HttpResponse, "to_bytes", "http")
        self._patch_method(message.HttpResponse, "wire_buffers", "http")

        parsed = count("html.parsed_bytes", lambda args: len(args[0]))
        self._patch_function(parser, "parse_document", "html", parsed)
        self._patch_function(parser, "parse_fragment", "html", parsed)
        for attr in (
            "serialize_document",
            "serialize_node",
            "serialize_children",
            "serialize_node_cached",
            "serialize_children_cached",
            "transform_children_cached",
        ):
            self._patch_function(serializer, attr, "html")

        for attr in (
            "navigate",
            "fetch_current_objects",
            "discover_object_urls",
            "mutate_document",
            "fill_field",
            "dispatch_event",
            "submit_form",
            "click_link",
        ):
            self._patch_method(Browser, attr, "browser")

        self._patch_method(content.ContentGenerator, "generate", "content")
        for attr in ("diff_trees", "apply_delta", "content_tree"):
            self._patch_function(delta, attr, "delta")

        decoded = count("xmlformat.decoded_bytes", lambda args: len(args[0]))
        self._patch_function(xmlformat, "parse_envelope", "xmlformat", decoded)
        for attr in (
            "js_escape",
            "js_unescape",
            "payload_encode",
            "build_envelope",
            "assemble_envelope",
            "wire_envelope_template",
            "wire_delta_template",
            "split_wire_template",
        ):
            self._patch_function(xmlformat, attr, "xmlformat")

        # A RelayAgent is an RCBAgent; what a relay serves belongs to the
        # relay tier.
        def agent_layer(agent):
            return "relay" if isinstance(agent, relay.RelayAgent) else "agent"

        for attr in ("_dispatch", "broadcast_action", "disconnect"):
            self._patch_method(RCBAgent, attr, agent_layer)
        for attr in ("connect_upstream", "_on_upstream_content", "forward_upstream"):
            self._patch_method(relay.RelayAgent, attr, "relay")

        self._patch_method(snippet.AjaxSnippet, "poll_once", _snippet_layer, poll_started)
        for attr in ("connect", "attach", "queue_action", "disconnect"):
            self._patch_method(snippet.AjaxSnippet, attr, _snippet_layer)

        for attr in ("join_browser", "leave", "fail_shard", "add_shard", "_rehome"):
            self._patch_method(shard.AgentPool, attr, "shard")
        for attr in ("place", "add_instance", "remove_instance"):
            self._patch_method(shard.SessionDirectory, attr, "shard")
