"""Tests for the MSCCL-style XML export.

Algorithms persist through the artifact store and topologies as ``custom``
specs; their round trips are tested in ``tests/api/test_artifact_store.py``
and ``tests/api/test_specs.py``.
"""

from xml.etree import ElementTree

import pytest

from repro.collectives import AllGather, AllReduce
from repro.core import TacosSynthesizer
from repro.errors import ReproError
from repro.export import algorithm_to_msccl_xml, save_msccl_xml
from repro.topology import build_mesh_2d, build_ring

MB = 1e6


@pytest.fixture(scope="module")
def mesh_algorithm():
    topology = build_mesh_2d(3, 3)
    pattern = AllGather(9)
    return topology, pattern, TacosSynthesizer().synthesize(topology, pattern, 9 * MB)


class TestMscclXml:
    def test_xml_structure(self, mesh_algorithm):
        _, _, algorithm = mesh_algorithm
        xml_text = algorithm_to_msccl_xml(algorithm)
        root = ElementTree.fromstring(xml_text)
        assert root.tag == "algo"
        assert int(root.attrib["ngpus"]) == 9
        assert root.attrib["coll"] == "allgather"
        gpus = root.findall("gpu")
        assert len(gpus) == 9
        total_send_steps = sum(
            len(tb.findall("step"))
            for gpu in gpus
            for tb in gpu.findall("tb")
            if tb.attrib["send"] != "-1"
        )
        assert total_send_steps == algorithm.num_transfers

    def test_reduction_collective_uses_rrc_steps(self):
        topology = build_ring(4)
        pattern = AllReduce(4)
        algorithm = TacosSynthesizer().synthesize(topology, pattern, 4 * MB)
        root = ElementTree.fromstring(algorithm_to_msccl_xml(algorithm))
        receive_types = {
            step.attrib["type"]
            for gpu in root.findall("gpu")
            for tb in gpu.findall("tb")
            if tb.attrib["recv"] != "-1"
            for step in tb.findall("step")
        }
        assert receive_types == {"rrc"}

    def test_empty_algorithm_rejected(self):
        from repro.core import CollectiveAlgorithm

        empty = CollectiveAlgorithm([], num_npus=2, chunk_size=1.0, collective_size=2.0)
        with pytest.raises(ReproError):
            algorithm_to_msccl_xml(empty)

    def test_save_to_file(self, mesh_algorithm, tmp_path):
        _, _, algorithm = mesh_algorithm
        path = save_msccl_xml(algorithm, tmp_path / "algo.xml")
        assert path.exists()
        ElementTree.fromstring(path.read_text())
