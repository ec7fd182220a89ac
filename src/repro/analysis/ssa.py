"""SSA construction and destruction, used by SCCP only.

Construction is the classic Cytron et al. algorithm:

1. place phi nodes at the iterated dominance frontier of each variable's
   definition sites;
2. rename along a preorder walk of the dominator tree, keeping a stack of
   reaching definitions per variable.

The IL has no phi instruction: the phis live in the side table
:attr:`SSAInfo.phis`, keyed by the label of their join block, while the
function's own instructions are renamed in place.  Destruction splits
critical edges (:func:`repro.ir.cfg.split_critical_edges`) so copies never
execute on paths that bypass the phi, then replaces each phi with copies
at the end of the predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IRError
from ..ir.cfg import predecessors, split_critical_edges
from ..ir.function import Function
from ..ir.instructions import Mov, VReg
from .dominators import DominatorInfo, compute_dominators, dominance_frontiers


@dataclass
class Phi:
    """``dst = phi [pred1: r1, pred2: r2, ...]`` at the head of a join."""

    dst: VReg
    incoming: dict[str, VReg]


@dataclass
class SSAInfo:
    """Bookkeeping produced by :func:`construct_ssa`.

    ``origin`` maps every SSA name back to the pre-SSA register it
    versions; names that were already single-assignment map to themselves.
    ``phis`` maps a join block's label to its phis; they are renamed, and
    lowered to copies, in list order.
    """

    origin: dict[VReg, VReg] = field(default_factory=dict)
    phis: dict[str, list[Phi]] = field(default_factory=dict)

    def origin_of(self, reg: VReg) -> VReg:
        return self.origin.get(reg, reg)


def construct_ssa(func: Function) -> SSAInfo:
    """Put ``func`` into SSA form in place; its phis go into the result."""
    dom = compute_dominators(func)
    frontiers = dominance_frontiers(func, dom)
    preds = predecessors(func)

    # -- collect definition sites per register id -----------------------------
    def_blocks: dict[int, set[str]] = {}
    def_counts: dict[int, int] = {}
    #: the first register object seen for each id (its hint names the phis)
    regs: dict[int, VReg] = {}
    for param in func.params:
        def_blocks.setdefault(param.id, set()).add(func.entry)
        def_counts[param.id] = def_counts.get(param.id, 0) + 1
        regs.setdefault(param.id, param)
    for label, block in func.blocks.items():
        if label not in dom.idom:
            continue  # unreachable
        for instr in block.instrs:
            dest = instr.dest
            if dest is not None:
                r = dest.id
                sites = def_blocks.get(r)
                if sites is None:
                    def_blocks[r] = {label}
                    def_counts[r] = 1
                    regs[r] = dest
                else:
                    sites.add(label)
                    def_counts[r] += 1

    # -- phase 1: phi placement at iterated dominance frontiers ---------------
    info = SSAInfo()
    for r, blocks in def_blocks.items():
        if def_counts[r] <= 1:
            # single static definition: no phis needed; renaming still
            # handles uses dominated by the def
            continue
        var = regs[r]
        work = list(blocks)
        placed: set[str] = set()
        while work:
            block_label = work.pop()
            for join in frontiers.get(block_label, ()):
                if join in placed:
                    continue
                placed.add(join)
                phi = Phi(var, {p: var for p in preds[join] if p in dom.idom})
                info.phis.setdefault(join, []).insert(0, phi)
                if join not in blocks:
                    work.append(join)

    # -- phase 2: renaming ------------------------------------------------------
    # reaching definitions, by the id of the register they version
    stacks: dict[int, list[VReg]] = {r: [] for r in def_blocks}

    def fresh_name(var: VReg) -> VReg:
        new = func.new_vreg(var.hint)
        info.origin[new] = info.origin.get(var, var)
        return new

    for param in func.params:
        stacks[param.id].append(param)
        info.origin[param] = param

    def top(var: VReg) -> VReg:
        stack = stacks.get(var.id)
        if not stack:
            # use of a register with no dominating definition: leave it —
            # the verifier in strict mode will complain if it matters
            return var
        return stack[-1]

    # iterative preorder walk over the dominator tree; a block's leaving
    # event pops the stacks its definitions pushed, so stacks unwind
    # exactly as in the recursive version
    work: list[tuple[str, list[list[VReg]] | None]] = [(func.entry, None)]
    while work:
        label, pushed = work.pop()
        if pushed is not None:
            for stack in pushed:
                stack.pop()
            continue
        pushed = []
        work.append((label, pushed))
        block = func.block(label)

        # phis define their registers before the block's first instruction
        for phi in info.phis.get(label, ()):
            var = phi.dst
            phi.dst = fresh_name(var)
            stack = stacks[var.id]
            stack.append(phi.dst)
            pushed.append(stack)
        for instr in block.instrs:
            mapping = {}
            for reg in instr.uses():
                stack = stacks.get(reg.id)
                if stack and stack[-1].id != reg.id:
                    mapping[reg] = stack[-1]
            if mapping:
                instr.replace_uses(mapping)
            dest = instr.dest
            if dest is not None:
                stack = stacks.get(dest.id)
                if stack is not None:
                    new_dest = fresh_name(dest)
                    stack.append(new_dest)
                    _set_dest(instr, new_dest)
                else:
                    # a register defined once and never phi-merged keeps
                    # its name; still record a (trivial) stack so nested
                    # uses resolve to it
                    stack = stacks[dest.id] = [dest]
                    info.origin[dest] = dest
                pushed.append(stack)

        for succ in block.successors():
            for phi in info.phis.get(succ, ()):
                orig = info.origin.get(phi.dst, phi.dst)
                if label in phi.incoming:
                    phi.incoming[label] = top(orig)

        for child in _dom_children(dom, label):
            work.append((child, None))

    return info


def _dom_children(dom: DominatorInfo, label: str) -> list[str]:
    return dom.children.get(label, [])


def _set_dest(instr: object, new_dest: VReg) -> None:
    """Rewrite an instruction's destination register in place."""
    if hasattr(instr, "dst"):
        instr.dst = new_dest  # type: ignore[attr-defined]
    else:
        raise IRError(f"cannot set destination of {instr}")


def destruct_ssa(func: Function, info: SSAInfo) -> None:
    """Replace ``info``'s phis with copies, leaving conventional (non-SSA) IL.

    Splits critical edges first, routing each phi input that crossed a
    split edge through the new block, then for each phi
    ``d = phi[p_i: r_i]`` appends ``d = mov r_i`` at the end of each
    predecessor ``p_i`` (before its terminator).  Parallel-copy hazards
    (swap problems) are handled by routing every phi of a block through
    fresh temporaries when any phi source is also a phi destination of the
    same block.  ``info.phis`` is empty afterwards.
    """
    for src, dst, mid in split_critical_edges(func):
        for phi in info.phis.get(dst, ()):
            if src in phi.incoming:
                phi.incoming[mid] = phi.incoming.pop(src)
    preds = predecessors(func)

    for label in func.blocks:
        phis = info.phis.get(label)
        if not phis:
            continue
        dests = {phi.dst for phi in phis}
        hazardous = any(src in dests for phi in phis for src in phi.incoming.values())

        for pred_label in preds[label]:
            pairs: list[tuple[VReg, VReg]] = []
            for phi in phis:
                src = phi.incoming.get(pred_label)
                if src is None:
                    raise IRError(
                        f"{func.name}/{label}: phi missing edge {pred_label}"
                    )
                pairs.append((phi.dst, src))
            pred_block = func.block(pred_label)
            copies: list[Mov] = []
            if hazardous:
                # parallel-copy semantics: read every source into a fresh
                # temporary before writing any destination
                temps = [func.new_vreg("swp") for _ in pairs]
                copies.extend(Mov(t, src) for t, (_, src) in zip(temps, pairs))
                copies.extend(Mov(dst, t) for t, (dst, _) in zip(temps, pairs))
            else:
                copies.extend(Mov(dst, src) for dst, src in pairs)
            insert_at = len(pred_block.instrs) - 1
            pred_block.instrs[insert_at:insert_at] = copies
    info.phis.clear()
