"""Golden boot images: pay for server boot once per (app, layout).

A fleet of near-identical nodes previously booted every guest from
scratch — N runs of the same initialization code producing N private
copies of the same post-boot pages.  Structural sharing fixes both
costs at once, the same move CXL memory-sharing systems use to make N
copies of a read-mostly working set cost ~1: boot one *donor* per
distinct ``(image, layout, checkpoint config)``, freeze its post-boot
state as a :class:`GoldenImage`, and *fork* every subsequent node from
it.  A fork shares the golden page objects copy-on-write (they enter
the fork's memory frozen, exactly as restored checkpoint pages do), so
a node that never diverges from boot state holds **zero** private page
bytes, and the fleet's aggregate checkpoint memory grows with the
number of *written* pages, not with N.

Exactness is non-negotiable: a forked node must be bit-identical to one
booted eagerly with the same seed, or the fleet's matched-seed
Gillespie equality breaks.  That holds because guest boot is
deterministic given (image, layout) — the only per-seed state in a
freshly booted node is the process rng (untouched when boot draws no
``rand``), the pid (derived from the seed in ``Process.__init__``), and
the layout itself (part of the cache key).  :meth:`GoldenImage.forkable`
refuses to fork when the donor's boot consumed entropy (``rand`` draws
or ``getpid`` calls — either would bake seed-dependent values into the
shared pages); ineligible keys simply boot eagerly, trading the
optimization for correctness.  ``time`` needs no gate: SYS_TIME reports
``cpu.virtual_time()`` — guest cycles over CPU_HZ, process-local and
independent of both the node seed and the Sweeper's virtual clock — so
a boot that reads the time bakes the same value on every node, even
when a restart re-boots mid-run at nonzero clock.

Randomized-layout fleets keep the savings through **layout cohorts**:
the cache key's layout component means nodes sharing one layout draw
(``SweeperConfig.layout_seed``) share one golden image, so a fleet of
randomized consumers pays one donor boot per *cohort* rather than per
node — 2^entropy_bits distinct layouts would otherwise defeat the cache
entirely.  ``stats()["layouts"]`` reports how many distinct layouts the
cache actually holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.process import Process, ProcessSnapshot
from repro.machine.syscalls import SYS_RAND, SyscallRecord


def layout_key(layout) -> tuple:
    """Hashable identity of one concrete address-space layout."""
    return (layout.code_base, layout.data_base, layout.heap_base,
            layout.lib_base, layout.stack_top, layout.entropy_bits,
            layout.randomized)


@dataclass
class GoldenImage:
    """Everything needed to fork a booted node instead of booting it.

    ``snapshot`` is the donor's boot checkpoint — taken *after* the
    checkpoint cost was charged, so its cpu state is the exact post-boot
    state.  Its page objects are shared by every fork (and by the donor
    itself) and must never be mutated; copy-on-write guarantees that, as
    every holder sees them frozen.
    """

    key: tuple
    #: The donor's program image, retained so the cache key's
    #: ``id(image)`` component can never alias a recycled address after
    #: the caller drops its own reference (lookups identity-check it).
    image: object
    snapshot: ProcessSnapshot
    boot_records: tuple[SyscallRecord, ...]
    boot_debug_log: tuple[bytes, ...]
    boot_sent: tuple
    call_targets: frozenset[int]
    #: Every pc the donor had decoded by boot end (linear sweep plus
    #: lazy decodes its boot run performed); forks adopt the same set.
    decoded_pcs: tuple[int, ...]
    #: Virtual-clock deltas relative to the donor's clock at boot start.
    checkpoint_virtual_delta: float
    boot_clock_delta: float
    #: CheckpointManager accounting at boot end.
    checkpoint_cost_cycles: int
    last_dirty_pages: int
    #: Entropy consumed during boot; forking requires zero of both.
    rand_draws: int
    getpid_calls: int
    forks: int = 0

    @property
    def forkable(self) -> bool:
        return self.rand_draws == 0 and self.getpid_calls == 0

    @property
    def boot_cycles(self) -> int:
        return self.snapshot.taken_at_cycles

    def fork_into(self, process: Process) -> ProcessSnapshot:
        """Install the golden boot state into a freshly loaded process.

        ``process`` keeps its own seed-derived identity (rng, pid) and
        its own predecoded cells; memory, cpu state and the boot syscall
        log come from the golden image, pages shared copy-on-write.
        Returns the process snapshot to install as the node's boot
        checkpoint (per-fork rng state, shared memory snapshot).
        """
        assert self.forkable
        rng_state = process.rng.getstate()
        process.restore_full(self.snapshot, keep_log=False)
        process.set_rng_state(rng_state)
        process.syscall_log.records = list(self.boot_records)
        process.syscall_log.cursor = 0
        process.debug_log = list(self.boot_debug_log)
        process.sent = list(self.boot_sent)
        process.cpu.known_call_targets |= self.call_targets
        process.cpu.adopt_decoded(self.decoded_pcs)
        self.forks += 1
        state = self.snapshot.cpu_state
        return ProcessSnapshot(
            memory=self.snapshot.memory,
            cpu_state={**state, "regs": list(state["regs"]),
                       "control_ring": list(state["control_ring"])},
            rng_state=rng_state,
            syscall_log_len=self.snapshot.syscall_log_len,
            current_msg_id=self.snapshot.current_msg_id,
            msg_cursor=self.snapshot.msg_cursor)


class GoldenImageCache:
    """Per-fleet registry of golden boot images.

    One cache is shared by every node of one fleet run; the first node
    built for a given ``(image, layout, checkpoint config)`` boots
    eagerly and donates its state, all later nodes with the same key
    fork.  Keys are per-cache, so separate fleets (and tests) never
    share state.
    """

    def __init__(self):
        self._images: dict[tuple, GoldenImage] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._images)

    def key_for(self, image, layout, interval_ms: float,
                max_checkpoints: int) -> tuple:
        return (id(image), layout_key(layout), interval_ms, max_checkpoints)

    def get(self, key: tuple, image=None) -> GoldenImage | None:
        golden = self._images.get(key)
        if golden is not None and golden.forkable and \
                (image is None or golden.image is image):
            self.hits += 1
            return golden
        self.misses += 1
        return None

    def peek(self, key: tuple) -> GoldenImage | None:
        """Introspection lookup that does not count as a hit/miss."""
        return self._images.get(key)

    def boot_stats(self, image, interval_ms: float,
                   max_checkpoints: int) -> GoldenImage | None:
        """Any golden image of ``image`` under this checkpoint config,
        regardless of layout.

        Boot *statistics* (virtual clock delta, guest cycles) are
        layout-independent — sliding region bases changes operand
        values, never the boot instruction sequence or its cycle count
        — so one image per (program, checkpoint config) is enough to
        synthesize the boot-state report of an untouched node on any
        layout, without booting it.
        """
        for golden in self._images.values():
            if golden.image is image and golden.key[2:] == \
                    (interval_ms, max_checkpoints):
                return golden
        return None

    def offer(self, key: tuple, image, donor_process: Process,
              checkpoint_snapshot: ProcessSnapshot,
              checkpoint_virtual_delta: float, boot_clock_delta: float,
              checkpoint_cost_cycles: int, last_dirty_pages: int):
        """Capture a freshly booted donor's state (first boot per key).

        Side-effect free on the donor: the checkpoint snapshot already
        exists and all mutable containers are copied out.
        """
        if key in self._images:
            return
        records = donor_process.syscall_log.records
        self._images[key] = GoldenImage(
            key=key,
            image=image,
            snapshot=checkpoint_snapshot,
            boot_records=tuple(records),
            boot_debug_log=tuple(donor_process.debug_log),
            boot_sent=tuple(donor_process.sent),
            call_targets=frozenset(donor_process.cpu.known_call_targets),
            decoded_pcs=tuple(sorted(donor_process.cpu._decode_cache)),
            checkpoint_virtual_delta=checkpoint_virtual_delta,
            boot_clock_delta=boot_clock_delta,
            checkpoint_cost_cycles=checkpoint_cost_cycles,
            last_dirty_pages=last_dirty_pages,
            rand_draws=sum(1 for r in records if r.number == SYS_RAND),
            getpid_calls=donor_process.getpid_calls)

    # -- fleet introspection -------------------------------------------------

    def stats(self) -> dict:
        return {
            "images": len(self._images),
            #: Distinct address-space layouts among the cached images —
            #: with layout-cohort sharing this equals the number of
            #: cohorts that booted, not the number of nodes, which is
            #: what keeps golden forking alive for randomized-layout
            #: fleets (one donor boot per cohort, every member forks).
            "layouts": len({key[1] for key in self._images}),
            "hits": self.hits,
            "misses": self.misses,
            "forks": sum(g.forks for g in self._images.values()),
        }
