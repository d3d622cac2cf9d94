"""Interchange formats for synthesized algorithms.

Algorithms persist through the artifact store
(:meth:`~repro.api.cache.ResultCache.put_algorithm`) and topologies as
``"custom"`` specs (:func:`~repro.api.specs.topology_to_spec`); this package
holds the MSCCL-style XML export for collective communication libraries.
"""

from repro.export.msccl_xml import algorithm_to_msccl_xml, save_msccl_xml

__all__ = ["algorithm_to_msccl_xml", "save_msccl_xml"]
