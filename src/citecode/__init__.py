"""Citation content coding for scholarly full text.

Parse documents, detect and link in-text citations, assign each one a
twelve-category code (A through L), aggregate the results, and measure
agreement against gold annotations. Import each name from the module
that defines it, such as ``citecode.pipeline`` or ``citecode.metrics``;
``import citecode`` loads none of them.
"""

__version__ = "0.5.0"
