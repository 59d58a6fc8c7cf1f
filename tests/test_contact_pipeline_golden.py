"""Golden digests of the simulator's contact pipeline.

Every cell of {instantaneous, durational, interruptible} contact model ×
{fault-free, faulted} × {noise-free, noisy} is run for RAPID and MaxProp
on a tiny hand-built schedule, and the SHA-256 of its canonical
``SimulationResult.to_dict()`` payload is compared with a pinned value.
One instantaneous run with faults and noise additionally pins the
digest of its lifecycle trace.

The faulted cells use one combined fault model that draws node crashes
(with buffer wipes), contact no-shows, mid-transfer kills and control
losses, so every fault branch of the contact-open path is exercised in
every contact model.  The noisy cells jitter capacities, miss meetings
and delay deliveries.  Any change to how a contact is opened, metered,
pumped or closed that moves a single byte shows up here.

To regenerate after a deliberate behaviour change, run this module as a
script (``PYTHONPATH=src python tests/test_contact_pipeline_golden.py``)
and paste the printed table.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro import units
from repro.dtn.node import DeploymentNoise
from repro.dtn.simulator import CONTACT_MODELS, run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.faults import FaultParameters, FaultSchedule, merge_windows
from repro.faults.base import FaultModel
from repro.faults.models import ContactFaults, MetadataLossFaults, NodeCrashFaults
from repro.mobility.exponential import ExponentialMobility
from repro.mobility.schedule import Meeting, MeetingSchedule
from repro.observability import MemorySink
from repro.routing.registry import create_factory

NUM_NODES = 6
DURATION = 300.0
PROTOCOLS = ("rapid", "maxprop")
FAULTS = ("none", "all")
NOISES = ("none", "noisy")


class _AllFaults(FaultModel):
    """Crashes, contact no-shows and kills, and control losses at once."""

    name = "all"

    def build_schedule(
        self, node_ids: Sequence[int], num_contacts: int, horizon: float
    ) -> FaultSchedule:
        crash = NodeCrashFaults(
            FaultParameters(model="crash", rate=0.4, mean_downtime=0.15), self.seed
        ).build_schedule(node_ids, num_contacts, horizon)
        contact = ContactFaults(
            FaultParameters(model="contact", rate=0.15), self.seed + 1
        ).build_schedule(node_ids, num_contacts, horizon)
        metadata = MetadataLossFaults(
            FaultParameters(model="metadata", rate=0.2), self.seed + 2
        ).build_schedule(node_ids, num_contacts, horizon)
        return FaultSchedule(
            downtimes=merge_windows(crash.downtimes),
            contact_no_shows=contact.contact_no_shows,
            transfer_kills=contact.transfer_kills,
            control_losses=metadata.control_losses,
        )


def _schedule() -> MeetingSchedule:
    """Exponential meetings widened into windows (every fifth stays a point)."""
    base = ExponentialMobility(
        num_nodes=NUM_NODES,
        mean_inter_meeting=45.0,
        transfer_opportunity=12 * units.KB,
        seed=21,
    ).generate(DURATION)
    rng = np.random.default_rng(22)
    contacts: List[Meeting] = []
    for index, meeting in enumerate(base):
        duration = 0.0 if index % 5 == 0 else float(rng.uniform(4.0, 40.0))
        contacts.append(
            Meeting(
                time=meeting.time,
                node_a=meeting.node_a,
                node_b=meeting.node_b,
                capacity=meeting.capacity,
                duration=duration,
            )
        )
    return MeetingSchedule(contacts, nodes=base.nodes, duration=DURATION)


def _packets():
    workload = PoissonWorkload(
        packets_per_hour=24.0, packet_size=1 * units.KB, deadline=120.0, seed=23
    )
    return workload.generate(list(range(NUM_NODES)), DURATION)


def _options(contact_model: str, faults: str) -> Dict[str, object]:
    options: Dict[str, object] = {"contact_model": contact_model}
    if contact_model != "instantaneous":
        options["contact_interrupt_probability"] = 0.3
    if faults == "all":
        options["fault_model"] = _AllFaults(FaultParameters(), seed=31)
    return options


def _noise(noise: str) -> Optional[DeploymentNoise]:
    if noise == "none":
        return None
    return DeploymentNoise(
        capacity_jitter=0.3, meeting_miss_probability=0.1, processing_delay=1.5, seed=41
    )


def _run(protocol: str, contact_model: str, faults: str, noise: str, trace_sink=None):
    options = _options(contact_model, faults)
    if trace_sink is not None:
        options["trace_sink"] = trace_sink
    return run_simulation(
        _schedule(),
        _packets(),
        create_factory(protocol),
        buffer_capacity=6 * units.KB,
        seed=13,
        noise=_noise(noise),
        options=options,
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_digest(protocol: str, contact_model: str, faults: str, noise: str) -> str:
    payload = _run(protocol, contact_model, faults, noise).to_dict()
    return _sha(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _trace_digest() -> str:
    sink = MemorySink()
    _run("rapid", "instantaneous", "all", "noisy", trace_sink=sink)
    return _sha("\n".join(sink.lines()))


def _cases():
    return [
        (protocol, model, faults, noise)
        for protocol in PROTOCOLS
        for model in CONTACT_MODELS
        for faults in FAULTS
        for noise in NOISES
    ]


RESULT_DIGESTS: Dict[str, str] = {
    "rapid-instantaneous-none-none": "778d257832695dec91e247e2468bf876e341059238e2f635de9926414827aa31",
    "rapid-instantaneous-none-noisy": "1a17c5c847df1ed4f96593bc3fae069c7ec30aeb637cc68e503c6efab9d728cc",
    "rapid-instantaneous-all-none": "f59c2c23e0c90ecc091c4878399d53be7b418ad42e625fc90e0047452c718a1f",
    "rapid-instantaneous-all-noisy": "467756ac1c6cf4db4cce82b1b3fab37e8bc3f40b76d93a2086ab83d8cd9d287b",
    "rapid-durational-none-none": "ad27c94086191ee2e16fa4c2d1bac4abd9f0dfd1dbcbc5a4d0a26fd7b9e65b42",
    "rapid-durational-none-noisy": "e49da5ec91b1d04573573a38697fd4dc41b4fb052650d1f37a8f40ccb465d06d",
    "rapid-durational-all-none": "4c9f7b917321b3ce74a05ad1bfe6648415ff06cab705fe5201f6012018551d23",
    "rapid-durational-all-noisy": "e926d39d15069ce44ecc7a011cb80cb2c487e52cd959deabb2470215963204c8",
    "rapid-interruptible-none-none": "2dcc4959f08186ee12f7618c971af11e3d92c213db06445c133a2634ec624eed",
    "rapid-interruptible-none-noisy": "cec6ab3b9bdde095173f86f7c1479fafa5fad9e0efd8b0636a343d40cc030c13",
    "rapid-interruptible-all-none": "2873d35b604f7110f6cedadee034b2b8821ce2c2c6bfc57715351d8f0b5f4d6c",
    "rapid-interruptible-all-noisy": "6e5c1314b67848dc6d8604d3da6c99a24a57e1faa53a50d1ab673d01dc716e8d",
    "maxprop-instantaneous-none-none": "a4e0d870384739063baa7edb3f1f2aedb25ed02989d3d2eed07b2480e25bc79d",
    "maxprop-instantaneous-none-noisy": "f5ed6fc1e7efa209d1fd81cc28bcccf331ebadd646179a44dbac6f5820cd8ffa",
    "maxprop-instantaneous-all-none": "cd55db2d8fd91b47150b8ed285c59d0c6c189b59cb49d22747563c607655e0ea",
    "maxprop-instantaneous-all-noisy": "8e09833f6a203a709a637258a853bce6588be22894b54b6bc4df0bf28ec3f2ce",
    "maxprop-durational-none-none": "608ad3f3a0fb6e66babaa3d3a0c8f66188568adf74746ea549587141df1567ed",
    "maxprop-durational-none-noisy": "2f720d160d8ac8aa91c01e6e88826c4463caf4337a133c70575f53345dea5cd6",
    "maxprop-durational-all-none": "9c8c37265460fe889dbbab539ed3c0fd1f9486642223a4753f44d6f43b04b4a3",
    "maxprop-durational-all-noisy": "44b340da1e4c496511b8f7f885beb0761bf0ae44cc321581d24f3e875a1cc5b8",
    "maxprop-interruptible-none-none": "26f801df3ab24523dc6b89af6618f95669bfedb65ebc0165cde1cad91b2a51b9",
    "maxprop-interruptible-none-noisy": "7f670d8e9dafce701bef7c4d7bbc50431d95e881fe330482ab89dae9a523eab8",
    "maxprop-interruptible-all-none": "34d9510d1421e13307923f9c27a4d55dc5da55562fc83e48db3ed6cee56b1d8d",
    "maxprop-interruptible-all-noisy": "62e73dd1d6f23578cf3e5971b57057d42b3783c8e85308c660c454a99920cdc5",
}

TRACE_DIGEST = "0b4452a66cb7a2da850c224344c79b182a02c83fbb3f2829924363a8c5f0b18e"


@pytest.mark.parametrize("case", _cases(), ids="-".join)
def test_result_digest_is_pinned(case):
    assert _result_digest(*case) == RESULT_DIGESTS["-".join(case)]


def test_instantaneous_fault_noise_trace_digest_is_pinned():
    assert _trace_digest() == TRACE_DIGEST


def test_faulted_cells_exercise_every_fault_branch():
    # The pins are only as strong as the branches they reach: every
    # fault kind must actually fire in each contact model.
    for model in CONTACT_MODELS:
        result = _run("rapid", model, "all", "noisy")
        assert result.contact_no_shows > 0
        assert result.transfers_killed > 0
        assert result.control_exchanges_lost > 0
        assert result.node_outages > 0
        assert result.meetings_missed > 0
        assert result.deliveries > 0


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("RESULT_DIGESTS = {")
    for case in _cases():
        print(f'    "{"-".join(case)}": "{_result_digest(*case)}",')
    print("}")
    print(f'TRACE_DIGEST = "{_trace_digest()}"')
