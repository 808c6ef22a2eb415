"""The synthetic e-commerce world.

The paper's substrate is proprietary: Alibaba's item catalog, search
queries, reviews, shopping guides, click logs, human annotators and
Wikipedia glosses.  This subpackage generates seeded synthetic equivalents
that exercise the same code paths:

- :mod:`lexicon` — ground-truth vocabulary for the 20 domains, including
  ambiguous surfaces and hypernym structure;
- :mod:`world` — the world model: compatibility rules, event->category
  requirements (the source of "semantic drift"), good/bad e-commerce
  concept generation with gold interpretations;
- :mod:`items` — the item catalog with templated titles;
- :mod:`queries` / :mod:`reviews` / :mod:`guides` — the text corpus;
- :mod:`clicklog` — simulated user clicks over concept cards;
- :mod:`glosses` — the external knowledge base (Wikipedia substitute);
- :mod:`oracle` — the human-annotator substitute with a labelling budget.
"""

from .lexicon import LexEntry, Lexicon, build_lexicon
from .world import World, ConceptSpec
from .items import SynthItem, generate_items
from .index import ConceptCandidateIndex, ItemKeyIndex, PartSignatureIndex
from .corpus import Corpus, build_corpus
from .glosses import GlossKB, build_gloss_kb
from .oracle import Oracle

__all__ = [
    "LexEntry", "Lexicon", "build_lexicon",
    "World", "ConceptSpec",
    "SynthItem", "generate_items",
    "ConceptCandidateIndex", "ItemKeyIndex", "PartSignatureIndex",
    "Corpus", "build_corpus",
    "GlossKB", "build_gloss_kb",
    "Oracle",
]
