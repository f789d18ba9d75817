"""The three workloads: surf, broadcast and churn.

Each workload builds a simulated world in ``setup`` and then runs in
*rounds*: a round is a fixed list of steps whose make-up never depends
on the seed (the seed only picks order, targets and values), so every
run attempts whole rounds of the same operations.  A step is a
generator the runner drives to completion on the simulator; its
``check`` runs afterwards with the clock stopped and compares the
program's output with what the workload itself wrote or counted.

Sync time is taken at the member's apply hook (``AjaxSnippet.on_content``,
chained): for every host change, stamped with the agent's ``doc_time``
when the host's document-changed/loaded notification fires, it is the
simulated time until the member has applied a document at least that new.
"""

from __future__ import annotations

import random
from html.parser import HTMLParser

from repro.browser.browser import Browser
from repro.browser.observer import TOPIC_DOCUMENT_CHANGED, TOPIC_DOCUMENT_LOADED
from repro.core.actions import MouseMoveAction
from repro.core.session import CoBrowsingSession
from repro.core.shard import AgentPool
from repro.http import RequestFailed
from repro.net import LAN_PROFILE, Host
from repro.webserver import sites
from repro.workloads.environments import build_lan, build_wan
from repro.workloads.surf import generate_trace


class StepResult:
    """What one step attempted, and what its checks found."""

    __slots__ = ("ops", "failed", "expected_failures", "misses")

    def __init__(self, ops=0):
        self.ops = ops
        #: Ops whose check failed (injected faults included).
        self.failed = 0
        #: Of those, the ones the known fault explains.
        self.expected_failures = 0
        #: Human-readable descriptions of unexpected misses.
        self.misses = []

    def miss(self, text):
        self.failed += 1
        self.misses.append(text)


class SyncProbe:
    """Host change stamps, member applies and the sync-time samples."""

    def __init__(self, sim, agent, host_browser):
        self.sim = sim
        self.agent = agent
        #: member id -> host change stamps (ms) the member has not reached.
        self.pending = {}
        #: member id -> doc_time of the member's last applied document.
        self.applied = {}
        #: Simulated sync times (seconds), in arrival order.
        self.samples = []
        #: Applies whose doc_time was older than the member's previous one.
        self.regressions = []
        self._waiter = None
        host_browser.observers.add_observer(TOPIC_DOCUMENT_CHANGED, self._on_host_change)
        host_browser.observers.add_observer(TOPIC_DOCUMENT_LOADED, self._on_host_change)

    def _on_host_change(self, _topic, _page):
        # The agent observed first, so doc_time already carries the stamp.
        stamp = self.agent.doc_time
        for stamps in self.pending.values():
            stamps.append(stamp)

    def track(self, member_id, snippet):
        """Start (or resume, after a re-home) timing ``member_id`` at
        ``snippet``'s apply hook."""
        self.pending.setdefault(member_id, [])
        self.applied.setdefault(member_id, snippet.last_doc_time)
        chained = snippet.on_content

        def on_content(content):
            if chained is not None:
                chained(content)
            self._on_apply(member_id, content.doc_time)

        snippet.on_content = on_content

    def forget(self, member_id):
        self.pending.pop(member_id, None)
        self.applied.pop(member_id, None)

    def _on_apply(self, member_id, doc_time):
        if member_id not in self.pending:
            return
        if doc_time < self.applied.get(member_id, 0):
            self.regressions.append((member_id, self.applied[member_id], doc_time))
        self.applied[member_id] = doc_time
        stamps = self.pending[member_id]
        now = self.sim.now
        reached = 0
        for stamp in stamps:
            if stamp > doc_time:
                break
            self.samples.append(now - stamp / 1000.0)
            reached += 1
        del stamps[:reached]
        self.wake()

    def synced(self, member_ids, stamp):
        applied = self.applied
        return all(applied.get(m, 0) >= stamp for m in member_ids)

    def wake(self):
        waiter = self._waiter
        if waiter is not None and waiter[0]():
            self._waiter = None
            waiter[1].succeed()

    def wait(self, predicate, deadline):
        """Generator: until ``predicate()`` holds or ``deadline`` simulated
        seconds pass; returns whether it holds."""
        if predicate():
            return True
        event = self.sim.event()
        self._waiter = (predicate, event)
        yield self.sim.any_of([event, self.sim.timeout(deadline)])
        self._waiter = None
        return predicate()


class _TitleParser(HTMLParser):
    def __init__(self):
        super().__init__()
        self.title = None
        self._in_title = False

    def handle_starttag(self, tag, attrs):
        if tag == "title" and self.title is None:
            self._in_title = True
            self.title = ""

    def handle_endtag(self, tag):
        if tag == "title":
            self._in_title = False

    def handle_data(self, data):
        if self._in_title:
            self.title += data


def origin_title(host):
    """The <title> of a Table-1 site's homepage bytes, read with the
    standard library's parser (independent of ``repro.html``)."""
    spec = next(s for s in sites.TABLE1_SITES if s.host == host)
    parser = _TitleParser()
    parser.feed(sites.generate_table1_site(spec).html)
    parser.close()
    return parser.title or ""


def _element_path(element, stop):
    """Element-child indices from ``stop`` down to ``element``."""
    path = []
    node = element
    while node is not stop:
        parent = node.parent
        path.append([child for child in parent.children].index(node))
        node = parent
    path.reverse()
    return path


def _walk(element, path):
    for index in path:
        children = element.children
        if index >= len(children):
            return None
        element = children[index]
    return element


def _first_text_input(document):
    for element in document.descendant_elements():
        if element.tag == "input" and element.get_attribute("type") == "text":
            return element
    return None


def _rng(seed, *parts):
    return random.Random("-".join(str(p) for p in (seed,) + parts))


# -- surf ------------------------------------------------------------------------------------


class Surf:
    """One participant on the WAN testbed following a surfing trace.

    A round visits each of the 20 Table-1 sites once, in a seeded order,
    with a mutation after every second visit, a participant form fill
    after every fourth and an idle pause after every fourth: 20 visits,
    10 mutations, 5 fills (35 ops) and 5 idles.  The mutation values,
    fill texts and idle lengths are drawn from ``generate_trace``.  The
    warm-up visits every site once, so every timed visit is a revisit.
    """

    name = "surf"
    min_rounds = 6
    SYNC_DEADLINE = 600.0

    def setup(self, seed):
        self.seed = seed
        sites._SITE_CACHE.clear()  # site generation is part of set-up
        testbed = build_wan(participants=1)
        self.sim = testbed.sim
        self.host = testbed.host_browser
        self.member = testbed.participant_browser
        self.session = CoBrowsingSession(self.host, transport="poll")
        self.agent = self.session.agent
        self.probe = SyncProbe(self.sim, self.agent, self.host)
        self.current_site = _rng(seed, "first").choice(
            [spec.host for spec in sites.TABLE1_SITES]
        )

        def boot():
            yield from self.session.host_navigate("http://%s/" % self.current_site)
            snippet = yield from self.session.join(self.member, participant_id="surfer")
            self.snippet = snippet
            self.probe.track("surfer", snippet)
            stamp = self.agent.doc_time
            ok = yield from self.probe.wait(
                lambda: self.probe.synced(("surfer",), stamp), self.SYNC_DEADLINE
            )
            if not ok:
                raise RuntimeError("surf: the participant never synced at set-up")

        testbed.run(boot())
        self.titles = {}
        self._values = self._trace_values(seed)
        return self

    def _trace_values(self, seed):
        """Endless mutation values, fill texts and idle lengths, in the
        order seeded ``generate_trace`` calls produce them."""
        pools = {"mutate": [], "participant_fill": [], "idle": []}
        chunk = 0
        while True:
            for operation in generate_trace(seed * 7919 + chunk, 256):
                if operation.kind in pools:
                    pools[operation.kind].append(operation.argument)
            chunk += 1
            while all(pools.values()):
                yield {kind: values.pop(0) for kind, values in pools.items()}

    def expected_title(self, site):
        title = self.titles.get(site)
        if title is None:
            title = self.titles[site] = origin_title(site)
        return title

    def warmup_steps(self):
        # Every site once, untimed: a site's first visit also downloads
        # its objects over the WAN, a one-time cost that would otherwise
        # make the first round unlike the others.
        order = [spec.host for spec in sites.TABLE1_SITES]
        _rng(self.seed, "warmup").shuffle(order)
        return [self._visit(site) for site in order]

    def round_steps(self, index):
        order = [spec.host for spec in sites.TABLE1_SITES]
        _rng(self.seed, "surf", index).shuffle(order)
        steps = []
        for position, site in enumerate(order):
            values = next(self._values)
            steps.append(self._visit(site))
            if position % 2 == 0:
                steps.append(self._mutate(values["mutate"]))
            if position % 4 == 1:
                steps.append(self._fill(values["participant_fill"]))
            if position % 4 == 3:
                steps.append(self._idle(values["idle"]))
        return steps

    def _synced(self):
        stamp = self.agent.doc_time
        return self.probe.wait(
            lambda: self.probe.synced(("surfer",), stamp), self.SYNC_DEADLINE
        )

    def _check_title(self, result):
        got = self.member.page.document.title
        want = self.expected_title(self.current_site)
        if got != want:
            result.miss("surf: member title %r, origin title %r" % (got, want))

    def _visit(self, site):
        def run():
            yield from self.session.host_navigate("http://%s/" % site)
            self.current_site = site
            ok = yield from self._synced()
            return ok

        def check(ok):
            result = StepResult(1)
            if not ok:
                result.miss("surf: visit to %s never synced" % site)
                return result
            self._check_title(result)
            return result

        return Step(run, check)

    def _mutate(self, value):
        text = "mutated-%d" % value

        def mutate(document):
            headings = document.get_elements_by_tag_name("h2")
            if headings:
                headings[0].inner_html = text
            else:
                block = document.create_element("div")
                block.inner_html = text
                document.body.append_child(block)

        def run():
            self.host.mutate_document(mutate)
            ok = yield from self._synced()
            return ok

        def check(ok):
            result = StepResult(1)
            if not ok:
                result.miss("surf: mutation %s never synced" % text)
                return result
            self._check_title(result)
            if text not in self.member.page.document.body.text_content:
                result.miss("surf: %s missing from the member's document" % text)
            return result

        return Step(run, check)

    def _fill(self, typed):
        def prepare():
            return _first_text_input(self.member.page.document)

        def run(field):
            if field is None:
                return False
            self.member.fill_field(field, typed)
            self.member.dispatch_event(field, "change")
            yield from self.snippet.flush()
            ok = yield from self._synced()
            return ok

        def check(ok):
            result = StepResult(1)
            if not ok:
                result.miss("surf: fill %r never synced" % typed)
                return result
            self._check_title(result)
            field = _first_text_input(self.host.page.document)
            value = field.get_attribute("value") if field is not None else None
            if value != typed:
                result.miss("surf: host field holds %r, member typed %r" % (value, typed))
            return result

        return Step(run, check, prepare=prepare)

    def _idle(self, seconds):
        def run():
            yield self.sim.timeout(seconds)
            return True

        return Step(run, None, idle=True)


class Step:
    """One step: ``prepare`` (untimed) -> ``run`` on the simulator
    (timed) -> ``check`` (untimed; idle steps have none)."""

    __slots__ = ("run", "check", "prepare", "idle")

    def __init__(self, run, check, prepare=None, idle=False):
        self.run = run
        self.check = check
        self.prepare = prepare
        self.idle = idle


# -- broadcast -------------------------------------------------------------------------------


class Broadcast:
    """Flat members on one mid-size Table-1 page on the LAN.

    Every tick the host edits one paragraph to ``tick-<k>`` and one
    member sends a pointer move that the agent fans out to every other
    member.  A round is 8 ticks; on its last tick the mover's next poll
    fails at its HTTP client (a fixed schedule, independent of the
    seed).  ``AjaxSnippet.poll_once`` empties its outgoing queue before
    sending, so that move is lost: its deliveries are the known failed
    operations.
    """

    name = "broadcast"
    min_rounds = 25
    MEMBERS = 32
    SITE = "msn.com"
    TICKS = 8
    INJECTED_TICK = 7
    TICK_DEADLINE = 30.0
    #: How long an injected tick waits for the lost move; a retried
    #: poll plus one poll interval to fan out would fit easily.
    INJECTED_DEADLINE = 5.0

    def setup(self, seed):
        self.seed = seed
        sites._SITE_CACHE.clear()
        testbed = build_lan(participants=self.MEMBERS)
        self.sim = testbed.sim
        self.host = testbed.host_browser
        self.session = CoBrowsingSession(self.host, transport="poll")
        self.agent = self.session.agent
        self.probe = SyncProbe(self.sim, self.agent, self.host)
        self.snippets = {}
        #: (receiver, move x) -> deliveries seen
        self.deliveries = {}
        self.duplicates = []
        self.tick = 0

        def boot():
            yield from self.session.host_navigate("http://%s/" % self.SITE)
            for index, browser in enumerate(testbed.participant_browsers):
                member_id = "m%02d" % index
                snippet = yield from self.session.join(browser, participant_id=member_id)
                self.snippets[member_id] = snippet
                self.probe.track(member_id, snippet)
                self._count_moves(member_id, snippet)
            stamp = self.agent.doc_time
            ok = yield from self.probe.wait(
                lambda: self.probe.synced(self.snippets, stamp), self.TICK_DEADLINE
            )
            if not ok:
                raise RuntimeError("broadcast: members never synced at set-up")

        testbed.run(boot())
        body = self.host.page.document.body
        self.paragraphs = [
            _element_path(p, body) for p in body.get_elements_by_tag_name("p")
        ]
        self.member_ids = sorted(self.snippets)
        return self

    def _count_moves(self, member_id, snippet):
        chained = snippet.on_actions

        def on_actions(actions):
            if chained is not None:
                chained(actions)
            for action in actions:
                if isinstance(action, MouseMoveAction):
                    key = (member_id, action.x)
                    seen = self.deliveries.get(key, 0) + 1
                    self.deliveries[key] = seen
                    if seen > 1:
                        self.duplicates.append(key)
            self.probe.wake()

        snippet.on_actions = on_actions

    def warmup_steps(self):
        return [self._tick(_rng(self.seed, "warmup"), inject=False)]

    def round_steps(self, index):
        rng = _rng(self.seed, "broadcast", index)
        return [
            self._tick(rng, inject=(position == self.INJECTED_TICK))
            for position in range(self.TICKS)
        ]

    def _tick(self, rng, inject):
        path = rng.choice(self.paragraphs)
        mover = rng.choice(self.member_ids)
        y = rng.randrange(1, 768)
        receivers = [m for m in self.member_ids if m != mover]

        def prepare():
            self.tick += 1
            return self.tick

        def run(tick):
            text = "tick-%d" % tick
            body = self.host.page.document.body

            def edit(_document):
                _walk(body, path).inner_html = text

            self.host.mutate_document(edit)
            stamp = self.agent.doc_time
            snippet = self.snippets[mover]
            snippet.report_mouse_move(tick, y)
            if inject:
                _fail_next_post(snippet.browser.client)
            deliveries = self.deliveries

            def done():
                return self.probe.synced(self.member_ids, stamp) and all(
                    (m, tick) in deliveries for m in receivers
                )

            yield from self.probe.wait(
                done, self.INJECTED_DEADLINE if inject else self.TICK_DEADLINE
            )
            if not self.probe.synced(self.member_ids, stamp):
                # The edit must land even when the move is lost.
                yield from self.probe.wait(
                    lambda: self.probe.synced(self.member_ids, stamp), self.TICK_DEADLINE
                )
            return tick

        def check(tick):
            result = StepResult(len(self.member_ids) + len(receivers))
            text = "tick-%d" % tick
            for member_id in self.member_ids:
                body = self.snippets[member_id].browser.page.document.body
                element = _walk(body, path) if body is not None else None
                if element is None or element.text_content != text:
                    result.miss("broadcast: %s does not show %s" % (member_id, text))
            for member_id in receivers:
                seen = self.deliveries.get((member_id, tick), 0)
                if seen == 1:
                    continue
                if seen == 0 and inject:
                    result.failed += 1
                    result.expected_failures += 1
                else:
                    result.miss(
                        "broadcast: move %d reached %s %d times" % (tick, member_id, seen)
                    )
            if (mover, tick) in self.deliveries:
                result.miss("broadcast: move %d echoed back to its sender" % tick)
            while self.duplicates:
                member_id, x = self.duplicates.pop()
                result.miss("broadcast: move %d reached %s again" % (x, member_id))
            return result

        return Step(run, check, prepare=prepare)


def _fail_next_post(client):
    """Make the next POST from ``client`` fail before it leaves the host."""

    def failing_post(*_args, **_kwargs):
        del client.post
        raise RequestFailed("injected: poll lost at the member's HTTP client")

    client.post = failing_post


# -- churn -----------------------------------------------------------------------------------


class Churn:
    """Members join and leave a sharded pool while the host edits.

    Four relay-backed shards serve one Table-1 page on the LAN, with
    presence announced on every shard.  Every tick the host thinks for a
    seeded pause and edits one paragraph, one seeded member leaves and a
    fresh member joins (a full envelope through the relay tier).  A
    round is 8 ticks: on tick 3 the shard with the most members fails
    and its standby is promoted (its members re-home), and on tick 6 a
    replacement shard joins the pool (the directory rebalances members
    onto it).
    """

    name = "churn"
    min_rounds = 25
    SITE = "facebook.com"
    SHARDS = 4
    MEMBERS = 24
    TICKS = 8
    FAIL_TICK = 3
    ADD_TICK = 6
    TICK_DEADLINE = 30.0
    #: The host's think time before its edit is uniform in [0, THINK_S):
    #: one poll interval.
    THINK_S = 1.0

    def setup(self, seed):
        self.seed = seed
        sites._SITE_CACHE.clear()
        testbed = build_lan(participants=0)
        self.testbed = testbed
        self.sim = testbed.sim
        self.host = testbed.host_browser
        self.session = CoBrowsingSession(self.host, transport="poll")
        self.agent = self.session.agent
        self.probe = SyncProbe(self.sim, self.agent, self.host)
        self.pool = AgentPool(self.session, shards=self.SHARDS, seed=seed)
        self.joined = 0

        def boot():
            yield from self.session.host_navigate("http://%s/" % self.SITE)
            yield from self.pool.start()
            self._announce_presence()
            for _ in range(self.MEMBERS):
                yield from self._join()
            stamp = self.agent.doc_time
            ok = yield from self.probe.wait(
                lambda: self.probe.synced(self.pool.snippets, stamp), self.TICK_DEADLINE
            )
            if not ok:
                raise RuntimeError("churn: members never synced at set-up")

        testbed.run(boot())
        body = self.host.page.document.body
        self.paragraphs = [
            _element_path(p, body) for p in body.get_elements_by_tag_name("p")
        ]
        return self

    def _announce_presence(self):
        for relay in self.pool.relays.values():
            relay.announce_presence = True

    def _join(self):
        # Every joiner gets a fresh PC and browser.  A browser that left
        # can hold a poll reply still in flight on its keep-alive
        # connection, which the next request on it would read instead of
        # its own reply.
        self.joined += 1
        member_id = "j%d" % self.joined
        pc = Host(self.testbed.network, "pc-" + member_id, LAN_PROFILE, segment="campus")
        browser = Browser(pc, name="browser-" + member_id)
        snippet = yield from self.pool.join_browser(browser, participant_id=member_id)
        self.probe.track(member_id, snippet)
        return member_id

    def _leave(self, member_id):
        self.pool.leave(member_id)
        self.probe.forget(member_id)

    def _hook_rehomed(self, moved):
        for member_id in moved:
            snippet = self.pool.snippets.get(member_id)
            if snippet is not None:
                self.probe.track(member_id, snippet)

    def warmup_steps(self):
        return [self._tick(_rng(self.seed, "warmup"), position=None)]

    def round_steps(self, index):
        rng = _rng(self.seed, "churn", index)
        return [self._tick(rng, position) for position in range(self.TICKS)]

    def _tick(self, rng, position):
        path = rng.choice(self.paragraphs)
        pick = rng.random()
        think = rng.uniform(0.0, self.THINK_S)
        state = {}

        def prepare():
            live = sorted(self.pool.snippets)
            return live[int(pick * len(live))]

        def run(leaver):
            # Without a pause the next edit would start right behind the
            # last member's poll, tying sync times to the poll phases the
            # seed happened to produce.
            yield self.sim.timeout(think)
            text = "churn-%d" % self.joined
            body = self.host.page.document.body

            def edit(_document):
                _walk(body, path).inner_html = text

            self.host.mutate_document(edit)
            self._leave(leaver)
            joiner = yield from self._join()
            moved = {}
            if position == self.FAIL_TICK:
                load = self.pool.directory.load()
                victim = max(sorted(load), key=lambda shard: load[shard])
                before = dict(self.pool.directory.assignments)
                self.pool.fail_shard(victim)
                moved = {
                    m: self.pool.directory.assignments.get(m)
                    for m, shard in before.items()
                    if shard == victim
                }
            elif position == self.ADD_TICK:
                before = dict(self.pool.directory.assignments)
                yield from self.pool.add_shard()
                self._announce_presence()
                moved = {
                    m: shard
                    for m, shard in self.pool.directory.assignments.items()
                    if before.get(m) not in (None, shard)
                }
            if moved:
                # The re-home processes start before this one resumes, and
                # none has had a reply yet: hook their fresh channels.
                yield self.sim.timeout(0)
                self._hook_rehomed(moved)
            stamp = self.agent.doc_time
            members = list(self.pool.snippets)

            def done():
                if not self.probe.synced(members, stamp):
                    return False
                return all(
                    self.pool.snippets[m].connected
                    and self.pool.snippets[m].agent_url.host == self._shard_host(shard)
                    for m, shard in moved.items()
                )

            ok = yield from self.probe.wait(done, self.TICK_DEADLINE)
            state.update(leaver=leaver, joiner=joiner, moved=moved, ok=ok)
            return ok

        def check(ok):
            moved = state["moved"]
            result = StepResult(2 + len(moved))
            if not ok:
                result.miss("churn: tick never synced")
            leaver = state["leaver"]
            if leaver in self.pool.snippets or leaver in self.pool.directory.assignments:
                result.miss("churn: %s is still a member after leaving" % leaver)
            joiner = state["joiner"]
            if self.probe.applied.get(joiner, 0) < self.agent.doc_time:
                result.miss("churn: %s joined but never synced" % joiner)
            for member_id, shard in moved.items():
                snippet = self.pool.snippets.get(member_id)
                if (
                    shard is None
                    or snippet is None
                    or not snippet.connected
                    or snippet.agent_url.host != self._shard_host(shard)
                ):
                    result.miss("churn: %s was not re-homed to %s" % (member_id, shard))
            while self.probe.regressions:
                member_id, old, new = self.probe.regressions.pop()
                result.miss("churn: %s went back from doc_time %d to %d" % (member_id, old, new))
            if position == self.TICKS - 1:
                self._check_bodies(result)
            return result

        return Step(run, check, prepare=prepare)

    def _shard_host(self, shard_id):
        return self.pool.agent_of(shard_id).browser.host.name

    def _check_bodies(self, result):
        want = self.host.page.document.body.text_content
        for member_id, snippet in sorted(self.pool.snippets.items()):
            body = snippet.browser.page.document.body
            if body is None or body.text_content != want:
                result.miss("churn: %s's body text differs from the host's" % member_id)


WORKLOADS = {workload.name: workload for workload in (Surf, Broadcast, Churn)}
